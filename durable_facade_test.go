package xmldyn

import (
	"fmt"
	"testing"
)

// TestDurableRepositoryFacade exercises the public durable surface:
// NewDurableRepository, logged batches, crash recovery, checkpoint.
func TestDurableRepositoryFacade(t *testing.T) {
	dir := t.TempDir()
	r, err := NewDurableRepository(dir, DurableOptions{Sync: SyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseString(`<shelf><book id="b1"/></shelf>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Open("shelf", doc, "qed"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := r.Batch("shelf", func(doc *Document, b *Batch) error {
			b.AppendChild(doc.Root(), fmt.Sprintf("book%d", i))
			return nil
		}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	nodes, err := r.Query("shelf", "//shelf")
	if err != nil || len(nodes) != 1 {
		t.Fatalf("query: %v (%d nodes)", err, len(nodes))
	}
	want := nodes[0].Children()

	// Crash without Close, recover, and check the committed writes.
	recovered, err := NewDurableRepository(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	if err := recovered.Verify("shelf"); err != nil {
		t.Fatalf("recovered order: %v", err)
	}
	err = recovered.View("shelf", func(s *Session) error {
		if got := len(s.Document().Root().Children()); got != len(want) {
			return fmt.Errorf("recovered %d children, want %d", got, len(want))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := recovered.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if gen := recovered.Generation(); gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
}
