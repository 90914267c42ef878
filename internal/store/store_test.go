package store

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// memUse runs f and reports the allocations and bytes it cost, the least
// of four runs, so a collection or a background allocation in one run
// does not count.
func memUse(f func()) (objects, size uint64) {
	objects, size = ^uint64(0), ^uint64(0)
	for try := 0; try < 4; try++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		objects, size = min(objects, m1.Mallocs-m0.Mallocs), min(size, m1.TotalAlloc-m0.TotalAlloc)
	}
	return objects, size
}

// sampleImage is a one-document repository image of the paper's sample
// document.
func sampleImage() []byte {
	return MarshalImage([]DocSnap{{Name: "book", Scheme: "qed", Tree: update.EncodeDocTree(xmltree.SampleBook())}})
}

// decodeAll decodes every tree of an image and returns their XML.
func decodeAll(t *testing.T, data []byte) []string {
	t.Helper()
	docs, err := UnmarshalImage(data)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(docs))
	for i, d := range docs {
		doc, err := update.DecodeDocTree(d.Tree)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		out[i] = doc.XML()
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	got := decodeAll(t, sampleImage())
	if len(got) != 1 || got[0] != xmltree.SampleBook().XML() {
		t.Fatalf("rebuild mismatch:\n%q", got)
	}
}

func TestRoundTripGenerated(t *testing.T) {
	var docs []DocSnap
	var want []string
	for seed := int64(0); seed < 6; seed++ {
		src := xmltree.Generate(xmltree.GenOptions{Seed: seed, MaxDepth: 4, MaxChildren: 5, AttrProb: 0.4, TextProb: 0.5})
		docs = append(docs, DocSnap{Name: string(rune('a' + seed)), Scheme: "deweyid", Tree: update.EncodeDocTree(src)})
		want = append(want, src.XML())
	}
	got := decodeAll(t, MarshalImage(docs))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: rebuild mismatch", i)
		}
	}
}

func TestChecksumDetectsFlips(t *testing.T) {
	data := sampleImage()
	// Flip one byte in the middle of the payload.
	data[len(data)/2] ^= 0x40
	_, err := UnmarshalImage(data)
	if err == nil {
		t.Fatal("corrupted image accepted")
	}
	// Either structural corruption or a checksum catches it.
	if !errors.Is(err, ErrBadChecksum) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestHeaderErrors(t *testing.T) {
	if _, err := UnmarshalImage(nil); !errors.Is(err, ErrBadMagic) {
		t.Errorf("nil: %v", err)
	}
	if _, err := UnmarshalImage([]byte("NOPE!123")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	bad := sampleImage()
	bad[4] = 99 // version byte
	if _, err := UnmarshalImage(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
}

func TestTruncationErrors(t *testing.T) {
	data := sampleImage()
	for _, cut := range []int{5, 8, len(data) / 2, len(data) - 2} {
		if _, err := UnmarshalImage(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	data := append(sampleImage(), 0x00, 0x01)
	if _, err := UnmarshalImage(data); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestFlipFuzzNeverPanics: arbitrary single-byte corruption is detected
// with one of the package's typed errors — never a panic, and never
// accepted: the flip lands under the image's checksum.
func TestFlipFuzzNeverPanics(t *testing.T) {
	base := sampleImage()
	f := func(pos uint16, mask byte) bool {
		if mask == 0 {
			return true
		}
		data := append([]byte{}, base...)
		data[int(pos)%len(data)] ^= mask
		_, err := UnmarshalImage(data)
		return isTyped(err)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
