package repo

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

// The commit routine keeps, per document, the op queue and the byte
// buffer a commit needs (docScratch, txn.go). These tests hold the reuse
// to what a fresh allocation gave for free: a transaction that fails
// leaves nothing of itself for the next, an oversized one does not pin
// its size, and interleaved commits that share documents each land
// whole.

// scratchState reads the named document's scratch under its lock: the
// queued ops, every slot of the queue's backing array that is not the
// zero Op, and the capacities kept.
func scratchState(t *testing.T, r *Repository, name string) (queued, dirty, opCap, bufCap int) {
	t.Helper()
	d := mustDoc(t, r, name)
	d.mu.Lock()
	defer d.mu.Unlock()
	ops := d.scratch.batch.Ops()
	for _, op := range ops[:cap(ops)] {
		if op != (update.Op{}) {
			dirty++
		}
	}
	return len(ops), dirty, cap(ops), cap(d.scratch.buf)
}

// lastRecord returns the payload of the last record in d's live log.
func lastRecord(t *testing.T, d *DurableRepository) []byte {
	t.Helper()
	first, _, ok := d.SegmentRange()
	if !ok {
		t.Fatal("closed repository")
	}
	var last []byte
	if _, err := wal.Replay(d.Dir(), first, func(payload []byte) error {
		last = append(last[:0], payload...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return last
}

// TestFailedCommitLeavesNoScratch: after a build that returns an error,
// a build that panics, a part that fails to stage and a record that
// fails to append, every involved document's op queue is empty down to
// its last slot, and the next commit logs byte for byte the record a twin
// that never failed logs.
func TestFailedCommitLeavesNoScratch(t *testing.T) {
	names := []string{"alpha", "beta"}
	// queue is what every failing transaction has queued by the time it
	// fails: ops on both documents, one of them carrying a subtree.
	queue := func(m map[string]*MultiDoc) {
		for _, md := range m {
			root := md.Document().Root()
			md.Batch().AppendChild(root, "LOST").SetAttr(root, "lost", "yes").
				Add(update.AppendSubtreeOp(root, mustParse(t, `<lost><deep/></lost>`).Root().Clone()))
		}
	}
	boom := errors.New("boom")
	failures := map[string]func(t *testing.T, d *DurableRepository){
		"build error": func(t *testing.T, d *DurableRepository) {
			if _, err := d.MultiBatch(names, func(m map[string]*MultiDoc) error {
				queue(m)
				return boom
			}); !errors.Is(err, boom) {
				t.Fatalf("failing build: %v", err)
			}
		},
		"build panic": func(t *testing.T, d *DurableRepository) {
			defer func() {
				if recover() == nil {
					t.Fatal("the build's panic did not reach the caller")
				}
			}()
			d.MultiBatch(names, func(m map[string]*MultiDoc) error {
				queue(m)
				panic(boom)
			})
		},
		"failed stage": func(t *testing.T, d *DurableRepository) {
			// alpha stages; beta deletes one node twice, which fails at
			// apply time and aborts alpha too.
			if _, err := d.MultiBatch(names, func(m map[string]*MultiDoc) error {
				queue(m)
				seed := m["beta"].Document().Root().FirstChild()
				m["beta"].Batch().Delete(seed).Delete(seed)
				return nil
			}); !errors.Is(err, update.ErrDetachedRef) {
				t.Fatalf("double delete: %v", err)
			}
		},
		"failed append": func(t *testing.T, d *DurableRepository) {
			if err := d.log.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := d.MultiBatch(names, func(m map[string]*MultiDoc) error {
				queue(m)
				return nil
			}); !errors.Is(err, ErrWALFailed) {
				t.Fatalf("commit on a closed log: %v", err)
			}
		},
	}
	open := func(t *testing.T) *DurableRepository {
		d, err := OpenDurable(t.TempDir(), DurableOptions{AutoCheckpointBytes: -1, Sync: wal.SyncAsync})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		for _, name := range names {
			if err := d.Open(name, mustParse(t, `<r><seed/></r>`), "qed"); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	next := func(t *testing.T, d *DurableRepository) []byte {
		if _, err := d.MultiBatch(names, func(m map[string]*MultiDoc) error {
			m["alpha"].Batch().AppendChild(m["alpha"].Document().Root(), "next")
			m["beta"].Batch().SetText(m["beta"].Document().Root(), "next")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return lastRecord(t, d)
	}
	for name, fail := range failures {
		t.Run(name, func(t *testing.T) {
			victim, twin := open(t), open(t)
			fail(t, victim)
			for _, doc := range names {
				if queued, dirty, _, _ := scratchState(t, victim.repo(), doc); queued != 0 || dirty != 0 {
					t.Errorf("%q after the failure: %d ops queued, %d slots still hold an op", doc, queued, dirty)
				}
			}
			// Both checkpoint: it is what clears the victim's failed
			// append, and it keeps the two logs comparable.
			for _, d := range []*DurableRepository{victim, twin} {
				if err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := next(t, victim), next(t, twin); !bytes.Equal(got, want) {
				t.Errorf("the commit after the failure logged\n %x\na twin that never failed logs\n %x", got, want)
			}
		})
	}
}

// TestBatchKeptPastBuildCommitsNothing: a batch is valid only inside the
// build that was handed it. An op a caller queues on one it kept is
// dropped at the start of the document's next commit, not committed
// with it.
func TestBatchKeptPastBuildCommitsNothing(t *testing.T) {
	r := New()
	if err := r.Open("a", mustParse(t, `<r/>`), "qed"); err != nil {
		t.Fatal(err)
	}
	var kept *update.Batch
	var root *xmltree.Node
	if _, err := r.MultiBatch([]string{"a"}, func(m map[string]*MultiDoc) error {
		kept, root = m["a"].Batch(), m["a"].Document().Root()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	kept.AppendChild(root, "STALE")
	if _, err := r.Batch("a", appendTo("fresh")); err != nil {
		t.Fatal(err)
	}
	nodes, err := r.Query("a", "/r/*")
	if err != nil || len(nodes) != 1 || nodes[0].Name() != "fresh" {
		t.Fatalf("after the commit the root holds %d children (%v), want the one <fresh/>", len(nodes), err)
	}
}

// TestOversizedTransactionScratchIsLetGo: one transaction of 10 000 ops
// grows the document's op queue and byte buffer far past scratchBytes;
// once it has committed, what the document keeps is back under the cap.
func TestOversizedTransactionScratchIsLetGo(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{AutoCheckpointBytes: -1, Sync: wal.SyncAsync})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Open("big", mustParse(t, `<r/>`), "qed"); err != nil {
		t.Fatal(err)
	}
	const ops = 10000
	opBytes := int(unsafe.Sizeof(update.Op{}))
	if _, err := d.Batch("big", func(doc *xmltree.Document, b *update.Batch) error {
		for i := 0; i < ops; i++ {
			b.SetAttr(doc.Root(), fmt.Sprintf("a%d", i%8), strings.Repeat("v", 16))
		}
		if grown := cap(b.Ops()) * opBytes; grown <= scratchBytes {
			t.Errorf("the transaction's queue is %d bytes, not past the cap of %d: the test measures nothing", grown, scratchBytes)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if record := len(lastRecord(t, d)); record <= scratchBytes {
		t.Fatalf("the transaction's record is %d bytes, not past the cap of %d: the test measures nothing", record, scratchBytes)
	}
	if _, _, opCap, bufCap := scratchState(t, d.repo(), "big"); opCap*opBytes > scratchBytes || bufCap > scratchBytes {
		t.Errorf("kept after a %d-op transaction: %d queue bytes and %d buffer bytes, cap %d each", ops, opCap*opBytes, bufCap, scratchBytes)
	}
}

// TestInterleavedMultiBatchCommitsWhatItCounts: four writers commit
// interleaved two-document transactions, 2 000 in all, naming the
// documents in alternating order. Each returns the four elements it
// inserted, and each document then holds its two, adjacent and
// childless — read under the document's lock and, every fiftieth
// commit, through a snapshot.
func TestInterleavedMultiBatchCommitsWhatItCounts(t *testing.T) {
	const writers, commits = 4, 500
	r := New()
	names := []string{"left", "right"}
	for _, name := range names {
		if err := r.Open(name, mustParse(t, `<r/>`), "qed"); err != nil {
			t.Fatal(err)
		}
	}
	// pair checks that nodes is one childless elem followed by its twin.
	pair := func(nodes []*xmltree.Node, elem string) error {
		if len(nodes) != 1 || nodes[0].FirstChild() != nil {
			return fmt.Errorf("%d nodes named %s, want one childless", len(nodes), elem)
		}
		if next := nodes[0].NextSibling(); next == nil || next.Name() != elem+"-twin" {
			return fmt.Errorf("%s is followed by %v, want its twin", elem, next)
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < commits; c++ {
				elem := fmt.Sprintf("w%d-c%d", w, c)
				// Writers alternate the order they name the documents in.
				order := []string{names[(w+c)%2], names[(w+c+1)%2]}
				inserted, err := r.MultiBatch(order, func(m map[string]*MultiDoc) error {
					for _, md := range m {
						md.Batch().AppendChild(md.Document().Root(), elem).AppendChild(md.Document().Root(), elem+"-twin")
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if inserted != 4 {
					t.Errorf("%s: MultiBatch inserted %d elements, want 4", elem, inserted)
					return
				}
				for _, name := range names {
					if err := r.QueryFunc(name, "/r/"+elem, func(nodes []*xmltree.Node) error { return pair(nodes, elem) }); err != nil {
						t.Errorf("%q: %v", name, err)
						return
					}
				}
				if c%50 == 0 {
					snap, err := r.Snapshot(names...)
					if err != nil {
						t.Error(err)
						return
					}
					for _, name := range names {
						found, err := snap.Query(name, "/r/"+elem)
						if err == nil {
							err = pair(found, elem)
						}
						if err != nil {
							t.Errorf("a later snapshot of %q: %v", name, err)
						}
					}
					snap.Close()
				}
			}
		}(w)
	}
	wg.Wait()
}
