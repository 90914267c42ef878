package repo

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// TestIndexReadsRaceWriter: lock-held readers query by name beside a
// writer. Together they read names for the first time (building the
// list at once under the read lock), read warm lists, and merge the runs
// of several contexts; each also appends to its answer, which must copy.
// Under -race this shows that no reader writes into a list another
// reader holds. The writer appends and deletes items and renames
// elements, and every eighth batch fails at apply time: its revert drops
// the index, so the next reads build their lists again, concurrently.
// Every answer a reader sees is in document order and names what its
// last step names, and the index verifies at the end.
func TestIndexReadsRaceWriter(t *testing.T) {
	const commits = 200
	r := New()
	if err := r.Open("a", mustParse(t, "<r><s><t/><u/></s><s/><s><t k='1'/></s></r>"), "qed"); err != nil {
		t.Fatal(err)
	}
	paths := []string{"//t", "//u", "//item", "/r/s//t", "//s//u", "/r/*//item", "//s//t[@k]", "//item[2]"}
	check := func(path string, nodes []*xmltree.Node) error {
		last := path[strings.LastIndex(path, "/")+1:]
		last, _, _ = strings.Cut(last, "[")
		for i, n := range nodes {
			if n.Name() != last {
				return fmt.Errorf("%s answered <%s>", path, n.Name())
			}
			if i > 0 && xmltree.DocOrderCompare(nodes[i-1], n) >= 0 {
				return fmt.Errorf("%s answered out of document order", path)
			}
		}
		_ = append(nodes, nil) // a capacity-limited answer copies
		return nil
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				path := paths[i%len(paths)]
				if err := r.QueryFunc("a", path, func(nodes []*xmltree.Node) error { return check(path, nodes) }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := range commits {
		_, err := r.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
			root := doc.Root()
			kids := root.Children()
			switch s := kids[i%3]; i % 8 {
			case 7:
				b.AppendChild(root, "item").Delete(s).Delete(s) // the second delete fails
			case 1, 5:
				if c := s.FirstChild(); c != nil {
					b.Rename(c, map[string]string{"t": "u", "u": "t", "item": "t"}[c.Name()])
				} else {
					b.AppendChild(s, "item")
				}
			case 2, 6:
				if last := kids[len(kids)-1]; last.Name() == "item" {
					b.Delete(last)
				}
			default:
				b.AppendChild(root, "item").AppendChild(s, "u")
			}
			return nil
		})
		if (err != nil) != (i%8 == 7) {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
	if err := r.Verify("a"); err != nil {
		t.Fatal(err)
	}
}
