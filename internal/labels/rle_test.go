package labels

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestCompressRunsPaperExample verifies the Com-D worked example from
// §3.1.2: "aaaaabcbcbcdddde" -> "5a3(bc)4de".
func TestCompressRunsPaperExample(t *testing.T) {
	got := CompressRuns("aaaaabcbcbcdddde")
	if got != "5a3(bc)4de" {
		t.Fatalf("got %q, want %q", got, "5a3(bc)4de")
	}
}

func TestCompressRunsNoGain(t *testing.T) {
	// Strings with no compressible runs come back unchanged.
	for _, s := range []string{"", "a", "ab", "abc", "aab"} {
		if got := CompressRuns(s); got != s {
			t.Errorf("CompressRuns(%q) = %q", s, got)
		}
	}
}

func TestCompressRunsLongRuns(t *testing.T) {
	in := strings.Repeat("z", 100)
	got := CompressRuns(in)
	if got != "100z" {
		t.Fatalf("long run: %q", got)
	}
}

func TestCompressRunsGroupChoice(t *testing.T) {
	if got := CompressRuns("abcabcabcabc"); got != "4(abc)" {
		t.Fatalf("group choice: %q, want %q", got, "4(abc)")
	}
}

// TestCompressRunsInjective shows the compression loses nothing: no two
// distinct strings over {a, b, c} of length at most 8 (9 841 strings)
// compress to the same string, so Com-D's compressed labels stay as
// distinct as the LSDX labels they compress.
func TestCompressRunsInjective(t *testing.T) {
	seen := map[string]string{}
	level := []string{""}
	for n := 0; n <= 8; n++ {
		var next []string
		for _, s := range level {
			c := CompressRuns(s)
			if prev, ok := seen[c]; ok {
				t.Fatalf("%q and %q both compress to %q", prev, s, c)
			}
			seen[c] = s
			for _, r := range "abc" {
				next = append(next, s+string(r))
			}
		}
		level = next
	}
	if len(seen) != 9841 {
		t.Fatalf("%d strings checked, want 9841", len(seen))
	}
}

func TestCompressRunsNeverLonger(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		for i := 0; i < 40; i++ {
			sb.WriteByte(byte('a' + rng.Intn(3)))
		}
		in := sb.String()
		return len(CompressRuns(in)) <= len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
