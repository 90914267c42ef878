package xmldyn_test

import (
	"fmt"
	"log"
	"os"

	"xmldyn"
)

// ExampleNewDurableRepository opens a directory-backed repository,
// commits a logged batch, "crashes" (drops the handle without
// Checkpoint), and reopens the directory: recovery replays the
// write-ahead log back to the committed state.
func ExampleNewDurableRepository() {
	dir, err := os.MkdirTemp("", "xmldyn-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	r, err := xmldyn.NewDurableRepository(dir, xmldyn.DurableOptions{Sync: xmldyn.SyncGrouped})
	if err != nil {
		log.Fatal(err)
	}
	doc, _ := xmldyn.ParseString("<inbox/>")
	if err := r.Open("inbox", doc, "qed"); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, err := r.Batch("inbox", func(doc *xmldyn.Document, b *xmldyn.Batch) error {
			b.AppendChild(doc.Root(), "msg")
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	// Crash: the handle is abandoned — no Close, no Checkpoint. Every
	// returned Batch is already durable under SyncGrouped.

	recovered, err := xmldyn.NewDurableRepository(dir, xmldyn.DurableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	err = recovered.View("inbox", func(s *xmldyn.Session) error {
		fmt.Printf("recovered %d messages\n", len(s.Document().Root().Children()))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("order invariant:", recovered.Verify("inbox") == nil)
	// Output:
	// recovered 3 messages
	// order invariant: true
}

// ExampleDurableRepository_MultiBatch commits one atomic transaction
// across two documents — the data document and its index change
// together or not at all. The whole transaction is appended to the
// write-ahead log as a single record, so a crash can never leave the
// pair half-updated: recovery replays either both documents' changes
// or neither.
func ExampleDurableRepository_MultiBatch() {
	dir, err := os.MkdirTemp("", "xmldyn-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	r, err := xmldyn.NewDurableRepository(dir, xmldyn.DurableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	books, _ := xmldyn.ParseString("<lib/>")
	index, _ := xmldyn.ParseString("<idx/>")
	if err := r.Open("books", books, "qed"); err != nil {
		log.Fatal(err)
	}
	if err := r.Open("index", index, "qed"); err != nil {
		log.Fatal(err)
	}

	_, err = r.MultiBatch([]string{"books", "index"}, func(m map[string]*xmldyn.MultiDoc) error {
		bk, ix := m["books"], m["index"]
		bk.Batch().AppendChild(bk.Document().Root(), "book")
		ix.Batch().AppendChild(ix.Document().Root(), "entry")
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"books", "index"} {
		err := r.View(name, func(s *xmldyn.Session) error {
			fmt.Printf("%s: %d children\n", name, len(s.Document().Root().Children()))
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	// Output:
	// books: 1 children
	// index: 1 children
}

// ExampleDurableRepository_Snapshot pins a multi-document MVCC
// snapshot on a durable repository and commits a MultiBatch next to
// it: the snapshot observes the pre-transaction state on BOTH
// documents — transaction consistency means it could never see the
// pair half updated (docs/CONCURRENCY.md §2, G3).
func ExampleDurableRepository_Snapshot() {
	dir, err := os.MkdirTemp("", "xmldyn-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	r, err := xmldyn.NewDurableRepository(dir, xmldyn.DurableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	books, _ := xmldyn.ParseString("<lib/>")
	index, _ := xmldyn.ParseString("<idx/>")
	if err := r.Open("books", books, "qed"); err != nil {
		log.Fatal(err)
	}
	if err := r.Open("index", index, "qed"); err != nil {
		log.Fatal(err)
	}

	snap, err := r.Snapshot("books", "index")
	if err != nil {
		log.Fatal(err)
	}
	defer snap.Close()

	// One atomic cross-document transaction commits after the pin.
	_, err = r.MultiBatch([]string{"books", "index"}, func(m map[string]*xmldyn.MultiDoc) error {
		for _, md := range m {
			md.Batch().AppendChild(md.Document().Root(), "entry")
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	for _, name := range []string{"books", "index"} {
		pinned, _ := snap.Query(name, "//entry")
		live, _ := r.Query(name, "//entry")
		fmt.Printf("%s: snapshot %d, live %d\n", name, len(pinned), len(live))
	}
	fmt.Println("pinned versions:", snap.Versions()["books"], snap.Versions()["index"])
	// Output:
	// books: snapshot 0, live 1
	// index: snapshot 0, live 1
	// pinned versions: 0 0
}

// ExampleDurableRepository_Checkpoint folds the write-ahead log into a
// fresh snapshot: the generation advances, dead segments are deleted,
// and the live log shrinks to one bare segment header — which is why
// recovery time stays bounded. (A background auto-checkpoint does the
// same automatically once live log bytes pass
// DurableOptions.AutoCheckpointBytes.)
func ExampleDurableRepository_Checkpoint() {
	dir, err := os.MkdirTemp("", "xmldyn-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	r, err := xmldyn.NewDurableRepository(dir, xmldyn.DurableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	doc, _ := xmldyn.ParseString("<ledger/>")
	if err := r.Open("ledger", doc, "qed"); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_, err := r.Batch("ledger", func(doc *xmldyn.Document, b *xmldyn.Batch) error {
			b.AppendChild(doc.Root(), "entry")
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("generation before:", r.Generation())

	if err := r.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("generation after:", r.Generation())
	live, _ := r.LogSize()                     // ok is false only on a closed repository
	fmt.Println("live log bytes after:", live) // one bare segment header
	first, active, _ := r.SegmentRange()
	fmt.Printf("live segments: [%d..%d]\n", first, active)
	// Output:
	// generation before: 1
	// generation after: 2
	// live log bytes after: 5
	// live segments: [2..2]
}
