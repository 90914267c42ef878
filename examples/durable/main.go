// Durable demonstrates the crash-safe repository layer: a directory-
// backed repository whose commits are write-ahead logged (durable,
// grouped sync here), surviving an abrupt process death. The demo commits
// batches across several small WAL segments (an artificially tiny
// rotation threshold so segmentation is visible), "crashes" by
// abandoning the repository without Close, and reopens the directory:
// recovery replays the checkpoint pack + segments back to the exact
// committed state, verifying document order as it goes. A checkpoint
// then folds the log into one pack, retiring the dead segments and the
// pack it replaced, and the cycle repeats on the fresh segment. The directory listing is
// printed at each stage — README.md annotates what you will see.
// docs/DURABILITY.md specifies the on-disk format this walks over.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"xmldyn"
)

// listDir prints the repository directory's files with sizes, sorted,
// so each stage's on-disk shape (checkpoint packs, wal segments) is
// visible, and returns their names.
func listDir(dir, label string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	fmt.Printf("on disk (%s):\n", label)
	for _, name := range names {
		info, err := os.Stat(dir + string(os.PathSeparator) + name)
		if err != nil {
			continue
		}
		kind := ""
		switch {
		case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".pack"):
			kind = "checkpoint pack"
		case strings.HasPrefix(name, "wal-"):
			kind = "wal segment"
		}
		fmt.Printf("  %-20s %7d bytes  %s\n", name, info.Size(), kind)
	}
	return names
}

func main() {
	dir := flag.String("dir", "", "repository directory (default: a temp dir, removed at exit)")
	commits := flag.Int("commits", 25, "batches to commit before the simulated crash")
	segBytes := flag.Int64("segment-bytes", 512, "WAL segment rotation threshold (tiny, to make segments visible)")
	flag.Parse()
	if *dir == "" {
		tmp, err := os.MkdirTemp("", "xmldyn-durable-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}
	// Auto-checkpoint is disabled here so the demo's manual Checkpoint
	// is the only compaction and the segment files stay put for the
	// crash; production code would usually leave the default threshold.
	opts := xmldyn.DurableOptions{Sync: xmldyn.SyncGrouped, SegmentBytes: *segBytes, AutoCheckpointBytes: -1}

	// Phase 1: open, commit, crash (no Close, no Checkpoint).
	r, err := xmldyn.NewDurableRepository(*dir, opts)
	if err != nil {
		log.Fatal(err)
	}
	doc, err := xmldyn.ParseString(`<ledger><entry seq="0"/></ledger>`)
	if err != nil {
		log.Fatal(err)
	}
	if err := r.Open("ledger", doc, "qed"); err != nil {
		log.Fatal(err)
	}
	for i := 1; i <= *commits; i++ {
		_, err := r.Batch("ledger", func(doc *xmldyn.Document, b *xmldyn.Batch) error {
			root := doc.Root()
			last := root.LastChild()
			b.InsertAfter(last, "entry")
			b.SetAttr(root, "entries", fmt.Sprintf("%d", i+1))
			return nil
		})
		if err != nil {
			log.Fatalf("commit %d: %v", i, err)
		}
	}
	// The ok results guard against reading a closed repository's zeros
	// as "empty log"; this handle is open, so they are true here.
	first, active, _ := r.SegmentRange()
	live, _ := r.LogSize()
	fmt.Printf("committed %d batches to %s\n", *commits, *dir)
	fmt.Printf("live log: %d bytes across segments [%d..%d], generation %d\n",
		live, first, active, r.Generation())
	listDir(*dir, "before crash")
	fmt.Println("simulating crash: abandoning the repository without Close")

	// Phase 2: recover. Every committed batch must be back, in order,
	// replayed across all the segments the crash left behind.
	recovered, err := xmldyn.NewDurableRepository(*dir, opts)
	if err != nil {
		log.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	if err := recovered.Verify("ledger"); err != nil {
		log.Fatalf("recovered order: %v", err)
	}
	var entries int
	err = recovered.View("ledger", func(s *xmldyn.Session) error {
		entries = len(s.Document().Root().Children())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: %d entries (want %d), order verified\n", entries, *commits+1)
	if entries != *commits+1 {
		log.Fatalf("recovered %d entries, want %d", entries, *commits+1)
	}

	// Phase 3: checkpoint folds the log into one pack and retires the
	// dead segments and the pack it replaced — this is what the
	// auto-checkpointer does in the background once live bytes pass
	// AutoCheckpointBytes.
	before, _ := recovered.LogSize()
	if err := recovered.Checkpoint(); err != nil {
		log.Fatalf("checkpoint: %v", err)
	}
	f2, a2, _ := recovered.SegmentRange()
	after, _ := recovered.LogSize()
	fmt.Printf("checkpoint: generation %d, log %d -> %d bytes, live segments now [%d..%d]\n",
		recovered.Generation(), before, after, f2, a2)
	packs := 0
	for _, name := range listDir(*dir, "after checkpoint") {
		if name == "MANIFEST" || strings.HasPrefix(name, "doc-") && strings.HasSuffix(name, ".snap") {
			log.Fatalf("checkpoint left %s, a file of the per-file layout packs replaced", name)
		}
		if strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".pack") {
			packs++
		}
	}
	if packs != 1 {
		log.Fatalf("checkpoint left %d packs, want exactly 1", packs)
	}

	// Post-checkpoint commits land in the fresh segment.
	if _, err := recovered.Batch("ledger", func(doc *xmldyn.Document, b *xmldyn.Batch) error {
		b.AppendChild(doc.Root(), "post-checkpoint")
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	final, _ := recovered.LogSize()
	fmt.Printf("post-checkpoint commit appended; log now %d bytes\n", final)
}
