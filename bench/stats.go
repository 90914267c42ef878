package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// samples holds the raw latencies of one operation class. The
// benchmark sorts raw samples instead of filing them into
// harness.Histogram: that histogram reports bucket midpoints 1/32
// apart, so a steady median would read exactly the same on every run
// (which the driver refuses) and A/A spreads would move in 3 % steps,
// a third of the bounds they are compared with.
type samples []time.Duration

// quantile returns the q-quantile by the nearest-rank rule, 0 when
// empty. The receiver is sorted in place.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// fastest is the smallest sample, 0 when empty.
func (s samples) fastest() time.Duration { return s.quantile(0) }

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / time.Duration(len(s))
}

// floats are per-window or per-round values whose median is reported.
type floats []float64

func (f floats) median() float64 {
	if len(f) == 0 {
		return 0
	}
	sort.Float64s(f)
	if n := len(f); n%2 == 0 {
		return (f[n/2-1] + f[n/2]) / 2
	}
	return f[len(f)/2]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// perSecond is n events per elapsed second, 0 when nothing ran.
func perSecond(n int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Seconds()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported value with its unit and the number of samples
// behind it (0 for counts and ratios).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"ops_attempted"`
	Failed     int64             `json:"ops_failed"`
	Op         string            `json:"op,omitempty"` // what ops_per_s and op_p50_us count
	Metrics    map[string]metric `json:"metrics"`
	Detail     map[string]metric `json:"detail,omitempty"` // the issue's names this workload owns; unbounded
	Counts     map[string]int64  `json:"counts"`           // sizes the run used or reached; may vary with time
	Exact      map[string]int64  `json:"exact_counts"`     // counts that repeat exactly for a seed
	StreamHash string            `json:"stream_hash"`
	Failures   []string          `json:"failures,omitempty"`
	WallS      float64           `json:"wall_s"`
}

func newResult(c config, seed int64, traced bool) *result {
	r := &result{Workload: c.Name, Seed: seed, Traced: traced, Correct: true,
		Metrics: map[string]metric{}, Counts: map[string]int64{}, Exact: map[string]int64{}}
	if !traced {
		r.Op, r.Detail = c.Op, map[string]metric{}
	}
	return r
}

// set records a metric under its declared unit.
func (r *result) set(defs []metricDef, name string, v float64, n int) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit, Samples: n}
			return
		}
	}
	r.fail("undeclared metric " + name)
}

// memMark is the process's allocation count and volume at one moment.
type memMark struct{ mallocs, bytes uint64 }

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.Mallocs, m.TotalAlloc}
}

// setAllocs reports what the whole process allocated between two marks
// per operation of the measured stage: the system's allocations and
// the client's own (building a commit, filing a latency), which are
// small and the same from run to run.
func (r *result) setAllocs(from, to memMark, ops int) {
	r.set(endToEnd, "alloc_bytes_per_op", ratio(float64(to.bytes-from.bytes), float64(ops)), ops)
	r.set(endToEnd, "allocs_per_op", ratio(float64(to.mallocs-from.mallocs), float64(ops)), ops)
}

// detail records one of the untraced run's timings beside the bounded
// metrics.
func (r *result) detail(name string, v float64, n int) {
	for _, d := range details {
		if d.Name == name {
			r.Detail[name] = metric{Value: v, Unit: d.Unit, Samples: n}
			return
		}
	}
	r.fail("undeclared detail " + name)
}

// tail records a high percentile as a detail, but only with at least
// ten samples beyond it.
func (r *result) tail(name string, s samples, q float64) {
	if float64(len(s))*(1-q) >= 10 {
		r.detail(name, us(s.quantile(q)), len(s))
	}
}

// fail records a failed correctness check.
func (r *result) fail(msg string) {
	r.Correct = false
	r.Failures = append(r.Failures, msg)
}
