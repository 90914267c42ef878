// Repoload demonstrates the concurrent repository layer under mixed
// traffic: a repository of scheme-diverse documents served to N
// goroutines of readers (XPath queries, order verifications) and
// writers (batched insert/delete transactions), followed by a whole-
// repository save/restore round trip. Every writer commit re-verifies
// document order — once per batch, however many ops the batch carries —
// so the repository never publishes an order-violating document.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"xmldyn"
)

// Workload shape, adjustable from the command line (see README.md).
var (
	writers      = flag.Int("writers", 6, "concurrent writer goroutines")
	readers      = flag.Int("readers", 12, "concurrent reader goroutines")
	opsPerWriter = flag.Int("ops", 30, "commits per writer (and reads per reader)")
	batchSize    = flag.Int("batch", 8, "ops per batched transaction")
)

// A scheme-diverse catalogue: every document lives under a different
// labelling scheme, exercising the repository's scheme independence.
var catalogue = []struct {
	name   string
	scheme string
	seed   int64
}{
	{"books", "qed", 1},
	{"articles", "deweyid", 2},
	{"feeds", "ordpath", 3},
	{"logs", "cdqs", 4},
	{"notes", "vector", 5},
}

func main() {
	flag.Parse()
	// Writer names drive the reader queries; with no writers the
	// readers query a name no writer uses (and never divide by zero).
	wmod := *writers
	if wmod < 1 {
		wmod = 1
	}
	r := xmldyn.NewRepository(xmldyn.RepoOptions{Shards: 4})
	for _, c := range catalogue {
		doc, err := xmldyn.ParseString("<root/>")
		if err != nil {
			log.Fatal(err)
		}
		if _, err := r.Open(c.name, doc, c.scheme); err != nil {
			log.Fatal(err)
		}
		// Seed each document with some content in one batch.
		d, _ := r.Get(c.name)
		err = d.Update(func(s *xmldyn.Session) error {
			b := s.Batch()
			for i := 0; i < 20; i++ {
				b.AppendChild(s.Document().Root(), fmt.Sprintf("item%d", i%4))
			}
			_, err := b.Commit()
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	var (
		wg             sync.WaitGroup
		queries, hits  int64
		commits, batch int64
	)

	// Writers: batched mixed insert/delete transactions, serialized
	// per document, parallel across documents.
	for w := 0; w < *writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := catalogue[w%len(catalogue)].name
			for i := 0; i < *opsPerWriter; i++ {
				err := r.Update(name, func(s *xmldyn.Session) error {
					root := s.Document().Root()
					b := s.Batch()
					for j := 0; j < *batchSize; j++ {
						b.AppendChild(root, fmt.Sprintf("w%d", w))
					}
					if kids := root.Children(); len(kids) > 60 {
						b.Delete(kids[0])
					}
					n, err := b.Commit()
					if err == nil {
						for _, created := range n.New {
							if created != nil {
								atomic.AddInt64(&batch, 1)
							}
						}
					}
					return err
				})
				if err != nil {
					log.Fatalf("writer %d: %v", w, err)
				}
				atomic.AddInt64(&commits, 1)
			}
		}(w)
	}

	// Readers: queries and order verifications, any number in
	// parallel per document.
	for g := 0; g < *readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := catalogue[g%len(catalogue)].name
			for i := 0; i < *opsPerWriter; i++ {
				if i%4 == 0 {
					d, _ := r.Get(name)
					if err := d.Verify(); err != nil {
						log.Fatalf("reader %d: order violated: %v", g, err)
					}
					continue
				}
				// Zero-copy query: the live nodes are only touched
				// inside the read lock.
				err := r.QueryFunc(name, fmt.Sprintf("//w%d", g%wmod), func(nodes []*xmldyn.Node) error {
					atomic.AddInt64(&hits, int64(len(nodes)))
					return nil
				})
				if err != nil {
					log.Fatalf("reader %d: %v", g, err)
				}
				atomic.AddInt64(&queries, 1)
			}
		}(g)
	}

	wg.Wait()

	fmt.Printf("repository: %d documents %v\n", r.Len(), r.Names())
	fmt.Printf("writers:    %d batch commits, %d nodes inserted\n", commits, batch)
	fmt.Printf("readers:    %d queries, %d nodes matched\n", queries, hits)
	for _, c := range catalogue {
		d, _ := r.Get(c.name)
		ctr := d.Counters()
		fmt.Printf("  %-9s %-8s batches=%-4d verifies=%-4d full=%-3d inserts=%-5d deletes=%d\n",
			c.name, c.scheme, ctr.Batches, ctr.Verifies, ctr.FullVerifies, ctr.Inserts, ctr.Deletes)
	}

	// The whole repository round-trips through one container.
	blob, err := xmldyn.SaveRepository(r)
	if err != nil {
		log.Fatal(err)
	}
	r2, err := xmldyn.RestoreRepository(blob, xmldyn.RepoOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("save/restore: %d bytes, %d documents restored, all verified: ", len(blob), r2.Len())
	for _, name := range r2.Names() {
		d, _ := r2.Get(name)
		if err := d.Verify(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	fmt.Println("yes")
}
