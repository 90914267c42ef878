package workload

import (
	"fmt"
	"math/rand"
)

// OpKind classifies the repository operations a phased stream emits,
// so a stream's plan and the per-op-class percentiles measured from it
// share one vocabulary.
type OpKind int

// The op classes of the phased generator.
const (
	// OpQuery is a lock-held read (Repository.QueryFunc).
	OpQuery OpKind = iota
	// OpSnapshotPin opens an MVCC snapshot, reads it, and closes it.
	OpSnapshotPin
	// OpBatch is a single-document batched write transaction.
	OpBatch
	// OpMultiBatch is an atomic cross-document write transaction.
	OpMultiBatch
	// OpCheckpoint forces a durable checkpoint (durable repositories
	// only; in-memory drivers treat it as a no-op).
	OpCheckpoint

	numOpKinds = iota
)

// String names the op class.
func (k OpKind) String() string {
	switch k {
	case OpQuery:
		return "query"
	case OpSnapshotPin:
		return "snapshot-pin"
	case OpBatch:
		return "batch"
	case OpMultiBatch:
		return "multibatch"
	case OpCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Mix weights the op classes within a phase. Weights are relative
// (they need not sum to 1); a zero-value field emits none of that op.
type Mix struct {
	Query       float64
	SnapshotPin float64
	Batch       float64
	MultiBatch  float64
	Checkpoint  float64
}

// weights returns the mix in OpKind order for cumulative sampling.
func (m Mix) weights() [numOpKinds]float64 {
	return [numOpKinds]float64{m.Query, m.SnapshotPin, m.Batch, m.MultiBatch, m.Checkpoint}
}

// Phase is a named stretch of a workload with a fixed op mix.
type Phase struct {
	Name string
	Ops  int
	Mix  Mix
}

// ReadMostly is the serving-steady-state phase: dominated by queries
// and snapshot reads, with a trickle of writes.
func ReadMostly(ops int) Phase {
	return Phase{Name: "read-mostly", Ops: ops, Mix: Mix{Query: 0.70, SnapshotPin: 0.22, Batch: 0.08}}
}

// Event is one operation of a generated phased stream: which phase it
// belongs to, its op class, and the rank(s) of the document(s) it
// targets (rank → name via the corpus the driver opened; Doc2 is only
// meaningful for OpMultiBatch and always differs from Doc when the
// corpus has more than one document).
type Event struct {
	Phase string
	Kind  OpKind
	Doc   int
	Doc2  int
}

// Stream expands phases into one deterministic operation stream over
// a corpus of docs documents whose popularity follows Zipf(skew)
// (skew 0 = uniform). Identical arguments yield an identical stream —
// byte-for-byte — which is what makes benchmark runs and
// uniform-vs-skewed comparisons differ only in the variable under
// test (docs/EXPERIMENTS.md).
func Stream(seed int64, docs int, skew float64, phases ...Phase) ([]Event, error) {
	if docs <= 0 {
		return nil, fmt.Errorf("workload: stream needs docs > 0, got %d", docs)
	}
	picker, err := NewZipf(seed+1, docs, skew)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for _, ph := range phases {
		n += max(ph.Ops, 0)
	}
	events := make([]Event, 0, n)
	for _, ph := range phases {
		w := ph.Mix.weights()
		var cum [numOpKinds]float64
		total := 0.0
		for i, wi := range w {
			if wi < 0 {
				return nil, fmt.Errorf("workload: phase %q has negative weight for %s", ph.Name, OpKind(i))
			}
			total += wi
			cum[i] = total
		}
		if total == 0 {
			return nil, fmt.Errorf("workload: phase %q has an all-zero mix", ph.Name)
		}
		for op := 0; op < ph.Ops; op++ {
			u := rng.Float64() * total
			kind := OpKind(0)
			for i := range cum {
				if u < cum[i] {
					kind = OpKind(i)
					break
				}
			}
			ev := Event{Phase: ph.Name, Kind: kind, Doc: picker.Next()}
			ev.Doc2 = ev.Doc
			if kind == OpMultiBatch {
				ev.Doc2 = picker.Next()
				if ev.Doc2 == ev.Doc && docs > 1 {
					ev.Doc2 = (ev.Doc2 + 1) % docs
				}
			}
			events = append(events, ev)
		}
	}
	return events, nil
}
