package core

import (
	"slices"
	"testing"
)

// TestRegistryBuiltOnce: a lookup reads the table — it used to rebuild
// all eighteen entries, 1.3 KB a call, once per document a repository
// opened — and Registry hands out a copy, so a caller that reorders or
// edits its slice changes no later lookup.
func TestRegistryBuiltOnce(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := SchemeByName("qed"); !ok {
			t.Fatal("qed is not registered")
		}
	}); a != 0 {
		t.Errorf("SchemeByName allocates %v", a)
	}
	mine := Registry()
	want := make([]string, len(mine))
	for i, s := range mine {
		want[i] = s.Name
	}
	slices.Reverse(mine)
	mine[0].Name = "renamed"
	for i, s := range Registry() {
		if s.Name != want[i] {
			t.Fatalf("entry %d reads %q after a caller edited its copy, want %q", i, s.Name, want[i])
		}
		if got, ok := SchemeByName(s.Name); !ok || got.Name != s.Name || got.Factory == nil {
			t.Errorf("SchemeByName(%q) = %+v, %v", s.Name, got, ok)
		}
	}
	if _, ok := SchemeByName("renamed"); ok {
		t.Error("a caller's edit reached the table")
	}
}
