package wal

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// buildPartitionLog writes records "key:seq" for the given schedule
// and returns the directory. A record starting with '!' is meant to be
// routed as a barrier.
func buildPartitionLog(t *testing.T, records []string) string {
	t.Helper()
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// routeByPrefix routes "key:…" records by key and "!…" records as
// barriers.
func routeByPrefix(payload []byte) (Dispatch, error) {
	s := string(payload)
	if strings.HasPrefix(s, "!") {
		return Dispatch{Barrier: true}, nil
	}
	key, _, ok := strings.Cut(s, ":")
	if !ok {
		return Dispatch{}, fmt.Errorf("malformed record %q", s)
	}
	return Dispatch{Key: key}, nil
}

// Per-key order is preserved across lanes, every record is applied
// exactly once, and the payload handed to apply is not clobbered by
// the replay buffer reuse.
func TestReplayPartitionedPreservesPerKeyOrder(t *testing.T) {
	const keys, perKey = 7, 50
	var records []string
	for i := 0; i < perKey; i++ {
		for k := 0; k < keys; k++ {
			records = append(records, fmt.Sprintf("k%d:%d", k, i))
		}
	}
	dir := buildPartitionLog(t, records)

	var mu sync.Mutex
	got := map[string][]string{}
	info, err := ReplayPartitioned(dir, 1, 4, routeByPrefix, func(payload []byte) error {
		key, seq, _ := strings.Cut(string(payload), ":")
		mu.Lock()
		got[key] = append(got[key], seq)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != len(records) {
		t.Fatalf("Records = %d, want %d", info.Records, len(records))
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%d", k)
		if len(got[key]) != perKey {
			t.Fatalf("key %s: %d records, want %d", key, len(got[key]), perKey)
		}
		for i, seq := range got[key] {
			if seq != fmt.Sprint(i) {
				t.Fatalf("key %s out of order at %d: got seq %s", key, i, seq)
			}
		}
	}
}

// A lane payload is apply's to keep: apply holds on to every one and
// scribbles over whatever capacity it has past its end, and at the end
// every kept payload still spells the record that was logged — no later
// record was copied over it and no neighbour's scribble reached it —
// with its capacity cut to its length. The records fill several chunks,
// and one is larger than a chunk.
func TestReplayPartitionedLanePayloadsAreKept(t *testing.T) {
	var records []string
	for i := range 2000 {
		records = append(records, fmt.Sprintf("k%d:%d:%s", i%5, i, strings.Repeat("x", i%50)))
		if i == 1000 {
			records = append(records, "k1:big:"+strings.Repeat("y", laneChunk+100))
		}
	}
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var kept [][]byte
	clipped := true
	if _, err := ReplayPartitioned(dir, 1, 4, routeByPrefix, func(payload []byte) error {
		for i, full := len(payload), payload[:cap(payload)]; i < len(full); i++ {
			full[i] = '#'
		}
		mu.Lock()
		kept = append(kept, payload)
		clipped = clipped && cap(payload) == len(payload)
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !clipped {
		t.Error("a lane payload has capacity past its length")
	}
	logged := map[string]bool{}
	for _, r := range records {
		logged[r] = true
	}
	for _, p := range kept {
		if !logged[string(p)] {
			t.Fatalf("a kept payload no longer spells a logged record: %.40q…", p)
		}
		delete(logged, string(p))
	}
	if len(kept) != len(records) || len(logged) != 0 {
		t.Fatalf("kept %d payloads of %d records, %d records never seen", len(kept), len(records), len(logged))
	}
}

// A barrier record observes every earlier record and precedes every
// later one, regardless of which lanes they ride.
func TestReplayPartitionedBarrierOrdering(t *testing.T) {
	var records []string
	for i := 0; i < 20; i++ {
		records = append(records, fmt.Sprintf("k%d:pre", i))
	}
	records = append(records, "!barrier")
	for i := 0; i < 20; i++ {
		records = append(records, fmt.Sprintf("k%d:post", i))
	}
	dir := buildPartitionLog(t, records)

	var mu sync.Mutex
	applied := 0
	barrierSawAll := false
	postBeforeBarrier := false
	barrierDone := false
	_, err := ReplayPartitioned(dir, 1, 8, routeByPrefix, func(payload []byte) error {
		s := string(payload)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case s == "!barrier":
			barrierSawAll = applied == 20
			barrierDone = true
		case strings.HasSuffix(s, ":post") && !barrierDone:
			postBeforeBarrier = true
		}
		applied++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !barrierSawAll {
		t.Fatal("barrier applied before all earlier records")
	}
	if postBeforeBarrier {
		t.Fatal("a post-barrier record applied before the barrier")
	}
	if applied != len(records) {
		t.Fatalf("applied %d records, want %d", applied, len(records))
	}
}

// The first apply error stops dispatch and is returned; the pool
// drains without deadlock.
func TestReplayPartitionedApplyErrorAborts(t *testing.T) {
	var records []string
	for i := 0; i < 200; i++ {
		records = append(records, fmt.Sprintf("k%d:%d", i%5, i))
	}
	dir := buildPartitionLog(t, records)

	boom := errors.New("boom")
	var mu sync.Mutex
	applied := 0
	_, err := ReplayPartitioned(dir, 1, 4, routeByPrefix, func(payload []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if applied == 10 {
			return boom
		}
		applied++
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if applied >= len(records) {
		t.Fatal("error did not stop the replay")
	}
}

// Route errors surface too, and workers <= 1 falls back to plain
// serial replay with identical results.
func TestReplayPartitionedRouteErrorAndSerialFallback(t *testing.T) {
	dir := buildPartitionLog(t, []string{"a:0", "malformed", "a:1"})
	_, err := ReplayPartitioned(dir, 1, 4, routeByPrefix, func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "malformed record") {
		t.Fatalf("route error lost: %v", err)
	}

	dir = buildPartitionLog(t, []string{"a:0", "b:0", "!m", "a:1"})
	var order []string
	info, err := ReplayPartitioned(dir, 1, 1, routeByPrefix, func(payload []byte) error {
		order = append(order, string(payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 4 || len(order) != 4 || order[2] != "!m" {
		t.Fatalf("serial fallback: info=%+v order=%v", info, order)
	}
}
