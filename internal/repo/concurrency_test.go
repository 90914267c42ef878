package repo

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// TestConcurrentReadersWriters drives parallel readers (queries and
// verifications) against parallel writers (one-op and four-op batches)
// across several scheme-diverse documents. Run under -race this is the
// repository's core soundness test: per-document writer serialization,
// parallel readers, and no cross-document interference.
func TestConcurrentReadersWriters(t *testing.T) {
	r := New()
	schemes := []string{"qed", "deweyid", "ordpath", "cdqs"}
	for i, scheme := range schemes {
		doc := workload.BaseDocument(int64(i), 80)
		if err := r.Open(fmt.Sprintf("doc-%d", i), doc, scheme); err != nil {
			t.Fatal(err)
		}
	}

	const (
		writers      = 8
		readers      = 16
		opsPerWriter = 40
	)
	var wg sync.WaitGroup
	var reads, writes int64
	errc := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("doc-%d", w%len(schemes))
			for i := 0; i < opsPerWriter; i++ {
				if i%2 == 0 {
					// Batched write: a handful of appends in one
					// transaction.
					_, err := r.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
						for j := 0; j < 4; j++ {
							b.AppendChild(doc.Root(), "w")
						}
						return nil
					})
					if err != nil {
						errc <- fmt.Errorf("writer %d batch: %w", w, err)
						return
					}
				} else {
					_, err := r.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
						root := doc.Root()
						if kids := root.Children(); len(kids) > 40 {
							b.Delete(kids[len(kids)-1])
						} else {
							b.AppendChild(root, "w")
						}
						return nil
					})
					if err != nil {
						errc <- fmt.Errorf("writer %d single: %w", w, err)
						return
					}
				}
				atomic.AddInt64(&writes, 1)
			}
		}(w)
	}

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("doc-%d", g%len(schemes))
			for i := 0; i < opsPerWriter; i++ {
				switch i % 4 {
				case 0:
					// Query returns clones: reading their fields after
					// the lock is released must be race-free even with
					// writers live (the bug class -race guards here).
					nodes, err := r.Query(name, "//w")
					if err != nil {
						errc <- fmt.Errorf("reader %d query: %w", g, err)
						return
					}
					for _, n := range nodes {
						if n.Name() != "w" {
							errc <- fmt.Errorf("reader %d: clone name %q", g, n.Name())
							return
						}
						if n.Parent() != nil {
							errc <- fmt.Errorf("reader %d: query result not detached", g)
							return
						}
					}
				case 3:
					// Zero-copy variant: live nodes only inside the lock.
					err := r.QueryFunc(name, "//w", func(nodes []*xmltree.Node) error {
						for _, n := range nodes {
							_ = n.Name()
						}
						return nil
					})
					if err != nil {
						errc <- fmt.Errorf("reader %d queryfunc: %w", g, err)
						return
					}
				case 1:
					err := r.View(name, func(s *update.Session) error {
						return s.Verify()
					})
					if err != nil {
						errc <- fmt.Errorf("reader %d verify: %w", g, err)
						return
					}
				default:
					err := r.View(name, func(s *update.Session) error {
						_ = s.Document().NodeCount()
						_ = s.Counters()
						return nil
					})
					if err != nil {
						errc <- fmt.Errorf("reader %d view: %w", g, err)
						return
					}
				}
				atomic.AddInt64(&reads, 1)
			}
		}(g)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("reads=%d writes=%d", reads, writes)
	}
	// Every document still satisfies the order invariant.
	for _, name := range r.Names() {
		if err := r.Verify(name); err != nil {
			t.Fatalf("%s after storm: %v", name, err)
		}
	}
}

// TestConcurrentOpenDrop hammers the shard maps themselves: goroutines
// opening, looking up, listing and dropping distinct names.
func TestConcurrentOpenDrop(t *testing.T) {
	r := New()
	const workers = 12
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				name := fmt.Sprintf("w%d-doc%d", w, i)
				doc := workload.BaseDocument(int64(i), 20)
				if err := r.Open(name, doc, "qed"); err != nil {
					errc <- err
					return
				}
				if _, ok := r.Scheme(name); !ok {
					errc <- fmt.Errorf("just-opened %q missing", name)
					return
				}
				_ = r.Names()
				_ = r.Len()
				if i%2 == 0 {
					if !r.Drop(name) {
						errc <- fmt.Errorf("drop %q failed", name)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := r.Len(); got != workers*15 {
		t.Fatalf("Len = %d, want %d", got, workers*15)
	}
}

// TestConcurrentSaveDuringWrites checks Save is consistent while
// writers are live: every snapshot it captures decodes and rebuilds.
// The writer keeps the documents the size they are — it deletes the
// child it appended last before appending the next — so a round costs
// the same however long the writer has run (appending alone, a document
// grows for as long as Load takes, and Load takes what the document has
// grown to: ROADMAP item 8). A Save counts once the writer has committed
// since the one before, so every counted Save had a live writer beside it.
func TestConcurrentSaveDuringWrites(t *testing.T) {
	r := New()
	var docs [3]*Doc
	for i := range docs {
		name := fmt.Sprintf("doc-%d", i)
		if err := r.Open(name, workload.BaseDocument(int64(i), 40), "qed"); err != nil {
			t.Fatal(err)
		}
		docs[i] = mustDoc(t, r, name)
	}
	versions := func() (sum uint64) {
		for _, d := range docs {
			sum += d.Version()
		}
		return sum
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := i % len(docs)
			if _, err := r.Batch(fmt.Sprintf("doc-%d", k), func(doc *xmltree.Document, b *update.Batch) error {
				if i >= len(docs) {
					b.Delete(doc.Root().LastChild()) // the x this writer appended last
				}
				b.AppendChild(doc.Root(), "x")
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const saves, rounds = 20, 20000
	counted, seen := 0, versions()
	for i := 0; counted < saves && i < rounds; i++ {
		data, err := r.Save()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(data); err != nil {
			t.Fatalf("save %d not loadable: %v", i, err)
		}
		if now := versions(); now != seen {
			counted, seen = counted+1, now
		}
	}
	close(stop)
	wg.Wait()
	if counted < saves {
		t.Fatalf("the writer committed between %d of %d rounds, want %d", counted, rounds, saves)
	}
}

// TestSaveIsPointInTime: a writer updates doc-a then doc-b in strict
// alternation, so at every real instant counter(a) is either equal to
// or one ahead of counter(b). A consistent snapshot must preserve that
// invariant; per-document snapshots taken at different moments could
// capture b ahead of a — a state that never existed.
func TestSaveIsPointInTime(t *testing.T) {
	r := New()
	for _, name := range []string{"a", "b"} {
		doc, err := xmltree.ParseString(`<r v="0"/>`)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Open(name, doc, "qed"); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, name := range []string{"a", "b"} {
				_, _ = r.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
					b.SetAttr(doc.Root(), "v", fmt.Sprint(i))
					return nil
				})
			}
		}
	}()
	read := func(r *Repository, name string) int {
		var v int
		err := r.View(name, func(s *update.Session) error {
			attr, _ := s.Document().Root().Attr("v")
			var err error
			v, err = strconv.Atoi(attr)
			return err
		})
		if err != nil {
			t.Fatalf("v attr of %q: %v", name, err)
		}
		return v
	}
	for i := 0; i < 50; i++ {
		data, err := r.Save()
		if err != nil {
			t.Fatal(err)
		}
		saved, err := Load(data)
		if err != nil {
			t.Fatal(err)
		}
		va, vb := read(saved, "a"), read(saved, "b")
		if va != vb && va != vb+1 {
			t.Fatalf("snapshot %d captured impossible state: a=%d b=%d", i, va, vb)
		}
	}
	close(stop)
	wg.Wait()
}
