package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"xmldyn"
	"xmldyn/internal/uql"
)

func TestRunDefaults(t *testing.T) {
	// No args: labels the paper's sample book.
	if err := run(options{scheme: "qed"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(options{scheme: "deweyid", table: true, stats: true}, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(options{scheme: "ordpath", query: "//name"}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(path, []byte("<r><a/><b/></r>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{scheme: "cdqs"}, []string{path}); err != nil {
		t.Fatal(err)
	}
	if err := run(options{scheme: "cdqs"}, []string{filepath.Join(dir, "missing.xml")}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunUnknownScheme(t *testing.T) {
	if err := run(options{scheme: "nope"}, nil); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestSnapshotRoundTripViaFlags(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "doc.xdyn")
	// Apply an XQUF script and save a snapshot.
	err := run(options{
		scheme: "cdqs",
		xquf:   `insert node <isbn>9</isbn> after //author`,
		save:   snap,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reload from the snapshot and query the inserted node.
	if err := run(options{load: snap, query: "//isbn"}, nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt and expect failure.
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{load: snap}, nil); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
	if err := run(options{load: filepath.Join(dir, "missing")}, nil); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

func TestXqufFlagErrors(t *testing.T) {
	if err := run(options{scheme: "qed", xquf: "garbage"}, nil); err == nil {
		t.Fatal("bad XQUF script accepted")
	}
}

// TestApplyScript runs the five edits of an update script through
// -xquf — an insert after, a text replacement, inserts as first and
// last child, a delete — and reads the result back from -save.
func TestApplyScript(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "doc.xdyn")
	script := `insert node <translator/> after //author;
		replace value of node //translator with "J. Doe";
		insert node <preface/> as first into /book;
		insert node <appendix/> as last into /book;
		delete node //edition`
	if err := run(options{scheme: "qed", xquf: script, save: snap}, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	s, err := xmldyn.Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	doc := s.Document()
	if doc.FindElement("translator") == nil || doc.FindElement("preface") == nil || doc.FindElement("appendix") == nil {
		t.Fatal("script inserts missing")
	}
	if kids := doc.Root().Children(); kids[0].Name() != "preface" || kids[len(kids)-1].Name() != "appendix" {
		t.Fatalf("first/last inserts misplaced: %s", doc.XML())
	}
	if doc.FindElement("edition") != nil {
		t.Fatal("script delete missed")
	}
	if got := doc.FindElement("translator").Text(); got != "J. Doe" {
		t.Fatalf("text: %q", got)
	}
	if err := xmldyn.VerifyOrder(s); err != nil {
		t.Fatal(err)
	}
}

// TestApplyScriptErrors: a path that selects nothing, a path that does
// not parse and an insert before the root each fail the run, and no
// snapshot is saved.
func TestApplyScriptErrors(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "doc.xdyn")
	for _, script := range []string{
		"insert node <x/> after //missing", // no match
		"insert node <x/> after [bad",      // parse error
		"insert node <x/> before /book",    // insert before root fails
	} {
		if err := run(options{scheme: "qed", xquf: script, save: snap}, nil); err == nil {
			t.Errorf("script %q accepted", script)
		}
	}
	if err := run(options{scheme: "qed", xquf: "insert node <x/> after //missing"}, nil); !errors.Is(err, uql.ErrNoMatch) {
		t.Fatalf("no match: %v, want uql.ErrNoMatch", err)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatalf("failed scripts saved a snapshot: %v", err)
	}
}
