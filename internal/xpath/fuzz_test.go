package xpath_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

// fuzzPath spells a location path of the package grammar from program:
// one to eight steps, child or descendant, element or attribute tests,
// and up to two predicates a step of every kind. Bytes past the end
// read as zero, so every program is a path.
func fuzzPath(program []byte) string {
	next := func() byte {
		if len(program) == 0 {
			return 0
		}
		b := program[0]
		program = program[1:]
		return b
	}
	elems := []string{"a", "b", "c", "*"}
	attrs := []string{"k", "id", "*"}
	var sb strings.Builder
	for i, n := 0, 1+int(next()%8); i < n; i++ {
		x := next()
		sb.WriteString([]string{"/", "//"}[x&1])
		if x&6 == 6 {
			sb.WriteString("@" + attrs[int(x>>3)%len(attrs)])
			continue
		}
		sb.WriteString(elems[int(x>>3)%len(elems)])
		for p := int(x>>5) % 3; p > 0; p-- {
			y := next()
			switch y % 4 {
			case 0:
				fmt.Fprintf(&sb, "[%d]", 1+int(y>>2)%3)
			case 1:
				sb.WriteString("[@" + attrs[int(y>>2)%2] + "]")
			case 2:
				fmt.Fprintf(&sb, "[@%s='v%d']", attrs[int(y>>2)%2], int(y>>4)%3)
			default:
				sb.WriteString("[" + elems[int(y>>2)%3] + "]")
			}
		}
	}
	return sb.String()
}

// FuzzQuery: any path of the grammar gives, on a published version,
// the nodes it gives on the live document, and on both the answer is
// in document order with no node twice. On each, an engine reading
// through a fresh element index gives the very nodes the walk gave:
// a deep step by name below an element reads the run of its list that
// two searches in tree order find. The paths run past the
// parser's four inline steps and through every predicate kind; the
// documents are renamedDocument's, where names repeat and contexts
// nest.
func FuzzQuery(f *testing.F) {
	f.Add(int64(1), []byte{0})
	f.Add(int64(2), []byte{1, 1 | 3<<3, 2 << 5, 0, 3})
	f.Add(int64(3), []byte{7, 1, 1 | 8, 0, 1 | 16, 1 | 24, 1 | 1<<5, 2, 0, 1, 7})
	f.Add(int64(4), []byte{5, 3 << 3, 1 | 2<<5, 5, 6, 1, 1 | 1<<5, 7 << 2, 1 | 6})
	f.Fuzz(func(t *testing.T, seed int64, program []byte) {
		path := fuzzPath(program)
		live := renamedDocument(seed % 8)
		view := xmltree.OpenVersion(live.PublishVersion(1))
		want, err := xpath.New(live, nil, xpath.ModeStructural).Query(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i := 1; i < len(want); i++ {
			if xmltree.DocOrderCompare(want[i-1], want[i]) != -1 {
				t.Fatalf("%s: live results %d and %d are not in document order, or the same node", path, i-1, i)
			}
		}
		got, err := xpath.New(view, nil, xpath.ModeStructural).Query(path)
		if err != nil {
			t.Fatalf("%s on the view: %v", path, err)
		}
		sameResult(t, path, view, want, got)
		for _, c := range []struct {
			doc  *xmltree.Document
			walk []*xmltree.Node
		}{{live, want}, {view, got}} {
			indexed, err := xpath.Indexed(c.doc, new(xpath.Index)).Query(path)
			if err != nil {
				t.Fatalf("%s through an index: %v", path, err)
			}
			if !slices.Equal(indexed, c.walk) {
				t.Fatalf("%s: through an index %d nodes, the walk %d (or other nodes)", path, len(indexed), len(c.walk))
			}
		}
	})
}
