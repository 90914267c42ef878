package update_test

import (
	"strings"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/labels"
)

// holdBulkViews guards the weaker contract of labels.Algebra.Assign — the
// result is a view of a row the process shares — across a registry-wide
// storm: it reads every row the registry's algebras share now, and again
// when t and its subtests are done. A caller that wrote into a view in
// between changed another document's labels, and fails t here.
// (labels.VerifyBulks, which recomputes the rows instead of remembering
// them, is test-only API of package labels and out of reach from this
// package; the storm of that package ends with it.)
func holdBulkViews(t *testing.T) {
	t.Helper()
	read := func() map[string]string {
		views := map[string]string{}
		for _, scheme := range core.Registry() {
			ap, ok := scheme.Factory().(interface{ Algebra() labels.Algebra })
			if !ok {
				continue
			}
			var sb strings.Builder
			add := func(n int) {
				cs, err := ap.Algebra().Assign(n)
				if err != nil {
					return // a narrow algebra has no such row
				}
				for _, c := range cs {
					sb.WriteString(c.String())
					sb.WriteByte(' ')
				}
			}
			// Sibling lists of every length a storm here produces, and a
			// long prefix of an integer algebra's list.
			for n := 1; n <= 64; n++ {
				add(n)
			}
			add(1000)
			views[scheme.Name] = sb.String()
		}
		return views
	}
	before := read()
	t.Cleanup(func() {
		for name, now := range read() {
			if now != before[name] {
				t.Errorf("%s: a shared bulk row changed during the storm", name)
			}
		}
	})
}
