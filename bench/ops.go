package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
)

// event is one pre-generated operation of a client's stream: the
// phased generator's op class and document ranks, plus the seed the
// commit builder draws its positions and values from.
type event struct {
	workload.Event
	Seed uint64
}

// sawtoothPeak is the number of extra root children a document grows
// to before it trims them again. Every write shape in the benchmark is
// this sawtooth: append-and-trim-front grows QED labels without bound
// (PR 5), and run time would drift with it.
const sawtoothPeak = 48

// streamLen is the length of one client's pre-generated stream; a main
// stage that outlasts it wraps around, which is safe because every
// event is valid in every sawtooth state.
const streamLen = 1 << 15

// genStreams builds one stream per client from the seed, outside any
// timed region, and returns them with a hash of their bytes. Documents
// come from workload.Stream (Zipf ranks, a distinct second document for
// a MultiBatch); the op classes are then dealt out in the mix's exact
// proportions, not drawn: a read_heavy commit allocates ten thousand
// times what a read does, so the three hundred commits a run has room
// for must be the same share of its ops on every seed, or the share's
// sampling error (5 %) is all that allocation per op would show.
func genStreams(c config, clients int, seed int64) ([][]event, string, error) {
	phase := workload.Phase{Name: "commit", Ops: streamLen, Mix: workload.Mix{Batch: 1 - c.MultiShare, MultiBatch: c.MultiShare}}
	if c.Stage == stageReads {
		phase = workload.ReadMostly(streamLen)
	}
	type class struct {
		kind   workload.OpKind
		weight float64
	}
	var classes []class
	var total float64
	for _, cls := range []class{
		{workload.OpQuery, phase.Mix.Query}, {workload.OpSnapshotPin, phase.Mix.SnapshotPin},
		{workload.OpBatch, phase.Mix.Batch}, {workload.OpMultiBatch, phase.Mix.MultiBatch},
	} {
		if cls.weight > 0 {
			classes = append(classes, cls)
			total += cls.weight
		}
	}
	h := fnv.New64a()
	var buf [8]byte
	out := make([][]event, clients)
	for cl := range out {
		evs, err := workload.Stream(seed*1009+int64(cl), c.Profile.Docs, c.Skew, phase)
		if err != nil {
			return nil, "", err
		}
		rng := rand.New(rand.NewSource(seed*7919 + int64(cl)))
		out[cl] = make([]event, len(evs))
		// Each class is owed its weight per event; the event goes to
		// the class owed most. The starting debts are seeded.
		owed := make([]float64, len(classes))
		for k := range owed {
			owed[k] = rng.Float64()
		}
		for i, ev := range evs {
			next := 0
			for k, cls := range classes {
				owed[k] += cls.weight / total
				if owed[k] > owed[next] {
					next = k
				}
			}
			owed[next]--
			ev.Kind = classes[next].kind
			e := event{Event: ev, Seed: rng.Uint64()}
			out[cl][i] = e
			h.Write([]byte{byte(e.Kind)})
			binary.LittleEndian.PutUint64(buf[:], uint64(e.Doc)<<32|uint64(e.Doc2))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], e.Seed)
			h.Write(buf[:])
		}
	}
	return out, fmt.Sprintf("%016x", h.Sum64()), nil
}

// docState is the sawtooth position of one document: its direction and
// the number of items the last commit left. It is written only inside
// commit build callbacks, which run under the document's write lock,
// and read elsewhere only while no client runs.
type docState struct {
	shrinking bool
	items     int
}

// xorshift is the commit builder's generator: one event seed in, a few
// cheap draws out.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x) | 1
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// buildCommit queues one commit of n ops on b against doc's current
// tree and advances the document's sawtooth. Plain commits append n
// "item" children to the root until sawtoothPeak of them exist, then
// delete the same tail n at a time. Wide commits place their items
// before, after and around the root's original children, and spend
// three of their ops on set-text, rename and set-attr; their shrink
// phase deletes every item, so each cycle returns the tree — and every
// scheme's label space — to its base state.
func buildCommit(st *docState, doc *xmltree.Document, b *update.Batch, seed uint64, n int, wide bool) {
	root := doc.Root()
	var items, anchors []*xmltree.Node
	for _, k := range root.Children() {
		switch {
		case k.Kind() != xmltree.KindElement:
		case k.Name() == "item":
			items = append(items, k)
		default:
			anchors = append(anchors, k)
		}
	}
	if len(items) >= sawtoothPeak {
		st.shrinking = true
	} else if len(items) == 0 {
		st.shrinking = false
	}
	rng := xorshift(seed)
	structural := n
	if wide {
		structural = n - 3
	}
	deleted := 0
	if st.shrinking {
		for i := len(items) - 1; i >= 0 && deleted < structural; i-- {
			b.Delete(items[i])
			deleted++
		}
		st.items = len(items) - deleted
	} else {
		st.items = len(items) + structural
		for i := 0; i < structural; i++ {
			r := rng.next()
			if !wide || len(anchors) == 0 {
				b.AppendChild(root, "item")
				continue
			}
			ref := anchors[int(r>>8)%len(anchors)]
			switch r % 4 {
			case 0:
				b.InsertBefore(ref, "item")
			case 1:
				b.InsertAfter(ref, "item")
			case 2:
				b.InsertFirstChild(root, "item")
			default:
				b.AppendChild(root, "item")
			}
		}
	}
	if !wide {
		return
	}
	// Content ops never touch a node this batch deletes: set-text goes
	// to an original child (or the root), rename to the oldest item.
	r := rng.next()
	target := root
	if len(anchors) > 0 {
		target = anchors[int(r>>8)%len(anchors)]
	}
	b.SetText(target, fmt.Sprintf("t%d", r%1000))
	if len(items) > deleted {
		b.Rename(items[0], "item")
	} else {
		b.SetText(root, fmt.Sprintf("r%d", r%1000))
	}
	b.SetAttr(root, fmt.Sprintf("k%d", r%4), fmt.Sprintf("v%d", r%1000))
}
