// Partitioned replay: the parallel-recovery half of the incremental
// checkpoint design. The record stream a durable repository logs is
// almost perfectly partitionable — every record names exactly one
// document, except the multi-document transaction record, which must
// observe every earlier record and be observed by every later one.
// ReplayPartitioned exploits that: it streams the log exactly like
// Replay (same segment order, same torn-tail rules, same ReplayInfo),
// but fans records out to a bounded worker pool, one lane per key
// hash, so per-document apply cost runs on all cores while per-
// document order — the only order the repository's state depends on —
// is preserved. Barrier records drain every lane and apply inline on
// the dispatching goroutine, restoring the total order exactly where
// it matters.

package wal

import (
	"hash/fnv"
	"sync"
)

// Dispatch routes one replayed record. The route callback of
// ReplayPartitioned returns it without decoding the record body: Key
// partitions non-barrier records (records with equal keys apply in log
// order on one lane; records with different keys may apply
// concurrently), and Barrier marks a record that must observe every
// earlier record and precede every later one (it is applied inline
// after all lanes drain).
type Dispatch struct {
	// Key is the partition key — for the durable repository, the
	// document name the record targets. Ignored when Barrier is set.
	Key string
	// Barrier marks a total-order record (RecMulti): all lanes drain,
	// the record applies alone, then fan-out resumes.
	Barrier bool
}

// laneChunk is the size of the chunks lane payloads are copied into, so
// that one allocation serves many records.
const laneChunk = 32 << 10

// laneJob is one unit of lane work: a record payload to apply, or —
// when flush is non-nil — a drain marker the lane acknowledges.
type laneJob struct {
	payload []byte
	flush   *sync.WaitGroup
}

// partitionState shares first-error latching between the dispatcher
// and the lane workers.
type partitionState struct {
	mu  sync.Mutex
	err error
}

func (p *partitionState) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *partitionState) first() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// ReplayPartitioned replays the segment files in dir holding indices
// first and above, like Replay, but applies records on a pool of
// `workers` goroutines partitioned by the key that route extracts from
// each payload. Guarantees:
//
//   - records with equal keys are applied in log order, on one lane;
//   - a record routed as a Barrier is applied inline only after every
//     previously dispatched record has been applied, and before any
//     later record is dispatched;
//   - apply never runs concurrently with itself for the same key, and
//     route never runs concurrently at all (it is called on the
//     dispatching goroutine in log order — it must be cheap and must
//     not retain the payload, which is reused between calls);
//   - on a lane, the payload apply receives is a window of a chunk of
//     laneChunk bytes, cut to its length and capacity, that nothing
//     writes again; a barrier's is Replay's, reused between records, as
//     is every payload with workers <= 1.
//
// The first error from route or apply stops dispatch; remaining queued
// records are drained without applying and the error is returned.
// With workers <= 1 it degenerates to plain serial Replay. Torn-tail
// handling and the returned ReplayInfo are identical to Replay.
func ReplayPartitioned(dir string, first uint64, workers int, route func(payload []byte) (Dispatch, error), apply func(payload []byte) error) (ReplayInfo, error) {
	if workers <= 1 {
		return Replay(dir, first, func(payload []byte) error {
			if _, err := route(payload); err != nil {
				return err
			}
			return apply(payload)
		})
	}

	state := &partitionState{}
	lanes := make([]chan laneJob, workers)
	var wg sync.WaitGroup
	for i := range lanes {
		lanes[i] = make(chan laneJob, 64)
		wg.Add(1)
		go func(lane chan laneJob) {
			defer wg.Done()
			for job := range lane {
				if job.flush != nil {
					job.flush.Done()
					continue
				}
				if state.first() != nil {
					continue // drain after a failure elsewhere
				}
				if err := apply(job.payload); err != nil {
					state.fail(err)
				}
			}
		}(lanes[i])
	}

	// flushLanes blocks until every record dispatched so far has been
	// applied (or skipped by the failure drain).
	flushLanes := func() {
		var barrier sync.WaitGroup
		barrier.Add(len(lanes))
		for _, lane := range lanes {
			lane <- laneJob{flush: &barrier}
		}
		barrier.Wait()
	}

	laneFor := func(key string) chan laneJob {
		h := fnv.New32a()
		_, _ = h.Write([]byte(key))
		return lanes[h.Sum32()%uint32(len(lanes))]
	}

	var chunk []byte // the lane payloads are cut from it
	info, err := Replay(dir, first, func(payload []byte) error {
		if err := state.first(); err != nil {
			return err // a lane already failed: stop reading the log
		}
		d, err := route(payload)
		if err != nil {
			return err
		}
		if d.Barrier {
			flushLanes()
			if err := state.first(); err != nil {
				return err
			}
			return apply(payload)
		}
		// Replay reuses its payload buffer between callbacks and the lane
		// applies asynchronously, so the lane gets a copy: a window of the
		// current chunk, which is never reused — a full one is left to the
		// lanes still reading it — or a slice of its own past laneChunk.
		if len(payload) > cap(chunk)-len(chunk) {
			chunk = make([]byte, 0, max(laneChunk, len(payload)))
		}
		at := len(chunk)
		chunk = append(chunk, payload...)
		laneFor(d.Key) <- laneJob{payload: chunk[at:len(chunk):len(chunk)]}
		return nil
	})

	for _, lane := range lanes {
		close(lane)
	}
	wg.Wait()
	if err == nil {
		err = state.first()
	}
	return info, err
}
