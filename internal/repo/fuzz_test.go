package repo

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"xmldyn/internal/labels"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
)

// fuzzOpts opens the fuzz directories: no fsync per record, no
// background checkpointer.
var fuzzOpts = DurableOptions{AutoCheckpointBytes: -1, Sync: wal.SyncAsync}

// fuzzBase builds the state every FuzzApplyRecord input is applied to —
// two documents, checkpointed, with a live WAL tail on top — as a
// directory template, plus one well-formed record of each type encoded
// against exactly that state.
func fuzzBase(f *testing.F) (template string, seeds [][]byte) {
	f.Helper()
	dir := f.TempDir()
	d, err := OpenDurable(dir, fuzzOpts)
	if err != nil {
		f.Fatal(err)
	}
	seedAndBatch(f, d, 3)
	if err := d.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	if _, err := d.MultiBatch([]string{"books", "feeds"}, func(m map[string]*MultiDoc) error {
		m["books"].Batch().AppendChild(m["books"].Document().Root(), "tail")
		m["feeds"].Batch().AppendChild(m["feeds"].Document().Root(), "tail")
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	// opsNamed encodes one queued append of an element called elem
	// against the named document's current tree, without committing it.
	opsNamed := func(name, elem string) []byte {
		var enc []byte
		if err := d.View(name, func(s *update.Session) error {
			b := s.Batch()
			b.AppendChild(s.Document().Root(), elem).SetAttr(s.Document().Root(), "k", "v")
			var err error
			enc, err = update.EncodeOps(s.Document(), b.Ops())
			return err
		}); err != nil {
			f.Fatal(err)
		}
		return enc
	}
	part := func(name string) recordPart { return recordPart{name, opsNamed(name, "fuzzed")} }
	drop := appendRecord(nil, record{kind: RecDrop, parts: []recordPart{{name: "feeds"}}})
	seeds = [][]byte{
		appendRecord(nil, record{kind: RecOpen, scheme: "ordpath", parts: []recordPart{
			{"fresh", update.EncodeDocTree(mustParse(f, `<fresh a="1"><x/>text</fresh>`))}}}),
		appendRecord(nil, record{kind: RecBatch, parts: []recordPart{part("books")}}),
		appendRecord(nil, record{kind: RecMulti, parts: []recordPart{part("books"), part("feeds")}}),
		drop,
		{RecBatch, 200, 'b', 'o'},             // name length overruns the payload
		append(drop[:len(drop):len(drop)], 0), // drop with trailing bytes
		labels.AppendString([]byte{0x7f}, "books"),                                                   // unknown type
		appendRecord(nil, record{kind: RecMulti, parts: []recordPart{part("books"), part("books")}}), // duplicate multi part
		{RecMulti, 0xff, 0xff, 0xff, 0x7f, 1, 'x'},                                                   // implausible multi count
		{RecMulti, 1, 5, 'b', 'o', 'o', 'k', 's', 9, 0},                                              // part length overruns the payload
		{RecDrop, 0x85, 0, 'f', 'e', 'e', 'd', 's'},                                                  // padded name length
		{},
		// Well-formed, but no XML name: the one transaction routine
		// refuses it (update.ErrBadName) live and at replay alike.
		appendRecord(nil, record{kind: RecBatch, parts: []recordPart{{"books", opsNamed("books", "has space")}}}),
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	template = imageDir(f, dir)
	// The first four seeds are the well-formed ones: each must apply
	// cleanly to the template, or the corpus no longer exercises the
	// accepting paths.
	// The last one must be refused for its name.
	for i, seed := range append(seeds[:4:4], seeds[len(seeds)-1]) {
		fr, err := OpenFollower(imageDir(f, template), fuzzOpts)
		if err != nil {
			f.Fatal(err)
		}
		if err := fr.ApplyRecord(seed); i < 4 && err != nil {
			f.Fatalf("well-formed seed %d rejected: %v", i, err)
		} else if i == 4 && !(errors.Is(err, ErrDiverged) && strings.Contains(err.Error(), update.ErrBadName.Error())) {
			f.Fatalf("bad-name seed: %v, want ErrDiverged over update.ErrBadName", err)
		}
		if err := fr.Close(); err != nil {
			f.Fatal(err)
		}
	}
	return template, seeds
}

// FuzzParseRecord feeds arbitrary payloads to the record codec. It must
// never panic; appendRecord must reproduce every payload parseRecord
// accepts byte for byte; and routeRecord must route by the parsed name,
// with a barrier exactly for RecMulti and for what does not parse —
// the same key and the same barrier whether it resolves the name against
// no repository or against one with the record's documents open. Routing
// a record whose document is open allocates nothing: the key is that
// document's own string. A parse, accepted or not, costs no more than a
// parts slice of len/3 entries, a copy of every name and an error.
func FuzzParseRecord(f *testing.F) {
	_, seeds := fuzzBase(f)
	for _, s := range seeds {
		f.Add(s)
	}
	// A name length and a part count whose tenth varint byte carries
	// more than bit 63: overflow, not MaxUint64 (labels.DecodeLEB128).
	overflow := append(bytes.Repeat([]byte{0xFF}, 9), 0x7F)
	f.Add(append([]byte{RecBatch}, overflow...))
	f.Add(append([]byte{RecMulti}, overflow...))
	// withOpen is a repository holding a document of each name rec parts.
	withOpen := func(t testing.TB, rec record) *Repository {
		r := New()
		for _, p := range rec.parts {
			if err := r.Open(p.name, mustParse(t, "<r/>"), "qed"); err != nil && !errors.Is(err, ErrEmptyName) {
				t.Fatal(err)
			}
		}
		return r
	}
	// seeds[1] is a RecBatch for "books", seeds[3] a RecDrop for "feeds".
	for _, seed := range [][]byte{seeds[1], seeds[3]} {
		rec, err := parseRecord(seed, nil, nil)
		if err != nil {
			f.Fatal(err)
		}
		r := withOpen(f, rec)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := routeRecord(r, seed); err != nil {
				f.Fatal(err)
			}
		}); allocs != 0 {
			f.Errorf("routing a record for open document %q allocates %.1f, want 0", rec.parts[0].name, allocs)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := parseRecord(payload, nil, nil)
		// A recordPart is 40 bytes, 64 with its size class's slack.
		limit := 64*(len(payload)/3+1) + len(payload) + 4096
		if size := bytesPerRun(4, func() { parseRecord(payload, nil, nil) }); size > float64(limit) {
			t.Fatalf("parsing %d bytes (%v) took %.0f bytes, limit %d", len(payload), err, size, limit)
		}
		route, rerr := routeRecord(nil, payload)
		if rerr != nil {
			t.Fatalf("routeRecord failed: %v", rerr)
		}
		if again, aerr := routeRecord(withOpen(t, rec), payload); aerr != nil || again != route {
			t.Fatalf("routed to %+v with no repository, to %+v (%v) with the record's documents open", route, again, aerr)
		}
		if err != nil || rec.kind == RecMulti {
			if !route.Barrier {
				t.Fatalf("record (parse: %v, type %d) routed to lane %q, want a barrier", err, rec.kind, route.Key)
			}
		} else if route.Barrier || route.Key != rec.parts[0].name {
			t.Fatalf("record for %q routed to %+v", rec.parts[0].name, route)
		}
		if err != nil {
			return
		}
		if again := appendRecord(nil, rec); !bytes.Equal(again, payload) {
			t.Fatalf("append∘parse is not the identity:\n got %x\nwant %x", again, payload)
		}
	})
}

// FuzzApplyRecord feeds arbitrary payloads to the one record applier
// through the follower's live path and through recovery replay. The
// applier must never panic; a rejected record must leave every tree
// byte-identical (all-or-nothing); and the two uses of the applier must
// agree — a record applied live must replay to the identical documents
// when the directory is recovered, and a record the live state
// rejected must fail recovery too.
func FuzzApplyRecord(f *testing.F) {
	template, seeds := fuzzBase(f)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := imageDir(t, template)
		live, err := OpenFollower(dir, fuzzOpts)
		if err != nil {
			t.Fatal(err)
		}
		before := followerStateXML(t, live)
		applyErr := live.ApplyRecord(payload)
		after := followerStateXML(t, live)
		if applyErr != nil && !reflect.DeepEqual(after, before) {
			t.Fatalf("rejected record (%v) changed state:\n got %v\nwant %v", applyErr, after, before)
		}
		for _, name := range live.Names() {
			if err := live.Verify(name); err != nil {
				t.Fatalf("verify %q after apply (%v): %v", name, applyErr, err)
			}
		}
		if err := live.Close(); err != nil {
			t.Fatal(err)
		}

		replayed, err := OpenFollower(dir, fuzzOpts)
		if errors.Is(applyErr, ErrDiverged) {
			// The record is in the log and the state cannot follow it:
			// recovery must refuse it exactly as the live apply did.
			if !errors.Is(err, ErrReplay) {
				t.Fatalf("live apply diverged (%v) but recovery returned %v, want ErrReplay", applyErr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("recovery of a log the live path accepted (apply: %v): %v", applyErr, err)
		}
		defer replayed.Close()
		if got := followerStateXML(t, replayed); !reflect.DeepEqual(got, after) {
			t.Fatalf("replay and live apply disagree:\nreplay %v\n  live %v", got, after)
		}
	})
}
