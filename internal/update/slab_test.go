package update_test

// A decoded document lives in one slab: its nodes in one array, their
// child and attribute lists as neighbouring windows of another, its
// names and values as substrings of one string. These tests hold it to
// behaving like a tree built node by node, and to costing what the
// slab promises.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/labels"
	"xmldyn/internal/schemes/prefix"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// TestSlabDocumentBehavesLikeHeapDocument drives a slab-decoded document
// and a twin parsed from the same XML through one generated stream —
// inserts before, after, first and last (every list of the decoded
// document starts full, so each first insert into a parent has to move
// its window), attribute sets, deletes, grafts, moves, renames, failing
// batches and staged aborts — under every registry scheme. After every
// transaction the two serialise alike and the decoded tree is valid. A
// window cut with room beyond its own entries fails this: an append
// would land in the next parent's list.
func TestSlabDocumentBehavesLikeHeapDocument(t *testing.T) {
	txns := 600
	if testing.Short() || raceEnabled {
		txns = 150
	}
	base := diffDoc()
	for _, scheme := range core.Registry() {
		t.Run(scheme.Name, func(t *testing.T) {
			t.Parallel()
			slabDoc, err := update.DecodeDocTree(update.EncodeDocTree(base))
			if err != nil {
				t.Fatal(err)
			}
			heapDoc, err := xmltree.ParseString(base.XML())
			if err != nil {
				t.Fatal(err)
			}
			if slabDoc.XML() != base.XML() || heapDoc.XML() != base.XML() {
				t.Fatal("the twins do not start alike")
			}
			a, err := update.NewSession(slabDoc, scheme.Factory())
			if err != nil {
				t.Fatal(err)
			}
			b, err := update.NewSession(heapDoc, scheme.Factory())
			if err != nil {
				t.Fatal(err)
			}
			pa, pb := rngPicker{rand.New(rand.NewSource(3))}, rngPicker{rand.New(rand.NewSource(3))}
			run := func(s *update.Session, tx txn) error {
				switch tx.mode {
				case modeSingle:
					return tx.single()
				case modeStaged:
					if _, err := s.Stage(tx.ops); err != nil {
						return err
					}
					return s.Abort()
				default:
					_, err := s.Apply(tx.ops)
					return err
				}
			}
			for i := 0; i < txns; i++ {
				ta, tb := buildTxn(pa, a, genAll), buildTxn(pb, b, genAll)
				where := fmt.Sprintf("txn %d (%s: %s)", i, ta.mode, ta.desc)
				errA, errB := run(a, ta), run(b, tb)
				if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
					t.Fatalf("%s: decoded document %v, parsed twin %v", where, errA, errB)
				}
				if xa, xb := slabDoc.XML(), heapDoc.XML(); xa != xb {
					t.Fatalf("%s: the twins diverged:\n decoded %s\n parsed  %s", where, xa, xb)
				}
				if err := slabDoc.Validate(); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
		})
	}
}

// memUse returns what f allocated, objects and bytes: the least of a few
// runs, since whatever else the process does in the meantime is counted
// too (a fuzz worker talks to its coordinator).
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

// TestLoadAllocsIndependentOfSize: loading a document — DecodeDocTree,
// then NewSession's Build — allocates per document, not per node. The
// decode is a constant; a prefix scheme's Build, once the bulk tables
// hold the fan-outs the documents have, is the code map plus one result
// slice per parent: a fraction of an allocation per node, where boxing
// each code took more than one.
func TestLoadAllocsIndependentOfSize(t *testing.T) {
	type load struct{ nodes, decode, build float64 }
	prefixSchemes := 0
	for _, scheme := range core.Registry() {
		var loads []load
		for _, nodes := range []int{200, 2000} {
			img := update.EncodeDocTree(workload.BaseDocument(1, nodes))
			doc, err := update.DecodeDocTree(img)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := update.NewSession(doc, scheme.Factory()); err != nil { // the first load fills the tables
				t.Fatal(err)
			}
			l := load{nodes: float64(doc.NodeCount())}
			l.decode = testing.AllocsPerRun(10, func() { doc, _ = update.DecodeDocTree(img) })
			l.build = testing.AllocsPerRun(10, func() { update.NewSession(doc, scheme.Factory()) })
			loads = append(loads, l)
		}
		small, large := loads[0], loads[1]
		if small.decode > 8 || large.decode > small.decode+2 {
			t.Errorf("%s: DecodeDocTree allocates %v at %v nodes and %v at %v, want a constant",
				scheme.Name, small.decode, small.nodes, large.decode, large.nodes)
		}
		if _, ok := scheme.Factory().(*prefix.Labeling); !ok {
			continue
		}
		prefixSchemes++
		for _, l := range loads {
			if l.build > 0.3*l.nodes+24 {
				t.Errorf("%s: Build allocates %v for %v nodes (%.2f a node), want under 0.3 a node",
					scheme.Name, l.build, l.nodes, l.build/l.nodes)
			}
		}
	}
	if prefixSchemes < 11 {
		t.Errorf("%d prefix schemes in the registry, want the 11 there were", prefixSchemes)
	}
}

// lyingTree is len bytes of nested lies: every element claims as many
// children as bytes remain — the most the plausibility check lets
// through — and holds one, down to where the bytes run out. A decoder
// that reserved room by the claims would allocate len²/12 list entries.
func lyingTree(size int) []byte {
	out := []byte{1} // one top-level child
	for len(out)+16 <= size {
		out = append(out, byte(xmltree.KindElement), 1, 'e', 0, 0)
		out = labels.AppendLEB128(out, uint64(size-len(out)-10))
	}
	return out
}

// TestDecodeDocTreeLiesReserveNothing: a rejected image costs its error,
// however long it is and whatever its counts claim.
func TestDecodeDocTreeLiesReserveNothing(t *testing.T) {
	for _, size := range []int{1 << 10, 1 << 14, 1 << 17} {
		img := lyingTree(size)
		var err error
		objects, bytes := memUse(func() { _, err = update.DecodeDocTree(img) })
		if !errors.Is(err, update.ErrCodecCorrupt) {
			t.Fatalf("%d bytes of nested lies: %v", size, err)
		}
		if objects > 16 || bytes > 4096 {
			t.Errorf("%d bytes of nested lies: rejected after %d allocations, %d bytes", size, objects, bytes)
		}
	}
}

// FuzzDecodeDocTree: the decoder of checkpoint snapshots, RecOpen records
// and bootstrap images never panics; what it rejects it rejects for the
// price of a slab no larger than the input; what it accepts is a valid
// tree that encodes to the one form the encoder writes — the input
// itself, unless that spelt a varint long or gave a node a field its
// kind does not have, which only ever makes the re-encoding shorter —
// and that form decodes to the same tree.
func FuzzDecodeDocTree(f *testing.F) {
	for _, shape := range []workload.Shape{workload.ShapeMixed, workload.ShapeWide, workload.ShapeDeep} {
		f.Add(update.EncodeDocTree(workload.ShapeDocument(shape, 1, 24)))
	}
	f.Add(update.EncodeDocTree(xmltree.SampleBook()))
	f.Add(lyingTree(200))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := update.DecodeDocTree(data)
		if err != nil {
			objects, size := memUse(func() { update.DecodeDocTree(data) })
			if !errors.Is(err, update.ErrCodecCorrupt) {
				t.Fatalf("rejection is not ErrCodecCorrupt: %v", err)
			}
			// Three slabs, the document, the error's wrappers; a node is
			// under 150 bytes and takes five of the input's.
			if objects > 24 || size > uint64(64*len(data)+4096) {
				t.Fatalf("rejecting %d bytes took %d allocations, %d bytes", len(data), objects, size)
			}
			return
		}
		// Structure only: an image may hold several root elements, as it
		// always might — one root is the session's rule (ErrRootSibling),
		// and no encoder of ours writes two.
		if err := doc.Node().Validate(); err != nil {
			t.Fatalf("decoded an invalid tree: %v", err)
		}
		enc := update.EncodeDocTree(doc)
		if len(enc) > len(data) || (len(enc) == len(data) && !bytes.Equal(enc, data)) {
			t.Fatalf("decode then encode turned\n%q into\n%q", data, enc)
		}
		again, err := update.DecodeDocTree(enc)
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if !bytes.Equal(update.EncodeDocTree(again), enc) || again.XML() != doc.XML() {
			t.Fatalf("the encoder's form does not decode to itself: %q", enc)
		}
	})
}
