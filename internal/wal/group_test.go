package wal

import (
	"errors"
	"os"
	"testing"
	"time"
)

// TestGroupedAppendAllocatesNothing: a grouped append takes a sequence
// number and waits for the flusher to pass it, so one writer's appends —
// the flusher's fsyncs included — allocate nothing.
func TestGroupedAppendAllocatesNothing(t *testing.T) {
	l, err := Create(t.TempDir(), 1, Options{Policy: SyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := []byte("a grouped record")
	appendOne := func() {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	appendOne()
	if got := testing.AllocsPerRun(100, appendOne); got != 0 {
		t.Errorf("a grouped append allocates %.1f, want 0", got)
	}
}

// TestZeroPolicyWaitsOnFlusher: the zero Options is the durable policy,
// and a durable append has one way back — a flusher round, which here
// starts only after its pace — so four concurrent appends released
// together each return nil, and none sooner than the pace after its
// release.
func TestZeroPolicyWaitsOnFlusher(t *testing.T) {
	const pace, writers = 20 * time.Millisecond, 4
	l, err := Create(t.TempDir(), 1, Options{pace: pace})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type result struct {
		err  error
		took time.Duration
	}
	gate, done := make(chan struct{}), make(chan result, writers)
	var released time.Time
	for range writers {
		go func() {
			<-gate
			err := l.Append([]byte("waits"))
			done <- result{err, time.Since(released)}
		}()
	}
	released = time.Now()
	close(gate)
	for range writers {
		r := <-done
		if r.err != nil {
			t.Errorf("append returned %v", r.err)
		}
		if r.took < pace {
			t.Errorf("append returned %v after its release, before the flusher's %v pace", r.took, pace)
		}
	}
}

// clock reads l's durability clock.
func clock(l *Log) (appended, synced uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended, l.synced
}

// parkAppends starts n grouped appends on l and returns once all n hold
// a sequence number, with their results to come on the channel.
func parkAppends(t *testing.T, l *Log, n int) <-chan error {
	t.Helper()
	done := make(chan error, n)
	for range n {
		go func() { done <- l.Append([]byte("parked")) }()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		numbered, _ := clock(l)
		if numbered == uint64(n) {
			return done
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d appends numbered after 10s", numbered, n)
		}
	}
}

// collect waits for n results, failing the test if one does not come
// within the deadline.
func collect(t *testing.T, done <-chan error, n int, within time.Duration) []error {
	t.Helper()
	var errs []error
	timeout := time.After(within)
	for range n {
		select {
		case err := <-done:
			errs = append(errs, err)
		case <-timeout:
			t.Fatalf("%d of %d parked appends returned within %v", len(errs), n, within)
		}
	}
	return errs
}

// TestFailedGroupedSyncReachesEveryWaiter: the log fails under appends
// parked behind the flusher's pace — its segment is closed, so the
// shared fsync fails, or a later append's write fails and Close stops the
// flusher before it syncs — and no append it was to cover is durable.
// Every parked append and every later one returns the failure, and none
// hangs.
func TestFailedGroupedSyncReachesEveryWaiter(t *testing.T) {
	const parked = 6
	for _, c := range []struct {
		name string
		pace time.Duration
	}{{"failed fsync", 200 * time.Millisecond}, {"failed write, then Close", time.Minute}} {
		t.Run(c.name, func(t *testing.T) {
			l, err := Create(t.TempDir(), 1, Options{Policy: SyncGrouped, pace: c.pace})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			done := parkAppends(t, l, parked)
			l.mu.Lock()
			l.f.Close()
			l.mu.Unlock()
			if c.pace == time.Minute {
				if err := l.Append([]byte("unwritable")); !errors.Is(err, os.ErrClosed) {
					t.Fatalf("append to a closed segment returned %v", err)
				}
				l.Close()
			}
			for i, err := range collect(t, done, parked, 10*time.Second) {
				if !errors.Is(err, os.ErrClosed) {
					t.Errorf("parked append %d returned %v, want the log's failure", i, err)
				}
			}
			for i := range 3 {
				if err := l.Append([]byte("later")); err == nil {
					t.Errorf("append %d after the failure returned nil", i)
				}
			}
		})
	}
}

// TestCloseAndRotateReleaseParkedAppends: a rotation's seal and Close's
// final sync cover every append numbered before them, so the appends
// parked behind the flusher's pace return nil at once, and their
// records replay.
func TestCloseAndRotateReleaseParkedAppends(t *testing.T) {
	const parked = 5
	for _, release := range []string{"Rotate", "Close"} {
		t.Run(release, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Create(dir, 1, Options{Policy: SyncGrouped, pace: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			done := parkAppends(t, l, parked)
			if release == "Rotate" {
				_, err = l.Rotate()
			} else {
				err = l.Close()
			}
			if err != nil {
				t.Fatalf("%s: %v", release, err)
			}
			for i, err := range collect(t, done, parked, 10*time.Second) {
				if err != nil {
					t.Errorf("parked append %d returned %v, want nil", i, err)
				}
			}
			if release == "Rotate" {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got, _ := replayAll(t, dir, 1); len(got) != parked {
				t.Fatalf("replayed %d records, want %d", len(got), parked)
			}
		})
	}
}

// TestEveryFsyncAdvancesSynced: every policy numbers its appends, and
// every fsync that covers them — a flusher round, Sync, a rotation's
// seal and Close — advances synced to the last number it made durable.
// A durable append returns already synced.
func TestEveryFsyncAdvancesSynced(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncGrouped, SyncAsync} {
		t.Run(pol.String(), func(t *testing.T) {
			l, err := Create(t.TempDir(), 1, Options{Policy: pol, FlushInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			appendOne := func() {
				if err := l.Append([]byte("clocked")); err != nil {
					t.Fatal(err)
				}
			}
			for range 3 {
				appendOne()
			}
			if appended, _ := clock(l); appended != 3 {
				t.Fatalf("3 appends numbered up to %d", appended)
			}
			// At once under grouped; within a flusher round under async.
			deadline := time.Now().Add(10 * time.Second)
			for _, synced := clock(l); synced != 3; _, synced = clock(l) {
				if pol != SyncAsync || time.Now().After(deadline) {
					t.Fatalf("synced %d after 3 appends, want 3", synced)
				}
				time.Sleep(time.Millisecond)
			}
			for i, op := range []struct {
				name string
				run  func() error
			}{
				{"Sync", l.Sync},
				{"Rotate", func() error { _, err := l.Rotate(); return err }},
				{"Close", l.Close},
			} {
				appendOne()
				if err := op.run(); err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}
				if appended, synced := clock(l); appended != uint64(4+i) || synced != appended {
					t.Errorf("after %s: appended %d, synced %d, want both %d", op.name, appended, synced, 4+i)
				}
			}
		})
	}
}

// TestSyncReleasesParkedAppends: Sync covers every append numbered
// before it, so grouped appends parked behind the flusher's pace return
// nil at once.
func TestSyncReleasesParkedAppends(t *testing.T) {
	const parked = 4
	l, err := Create(t.TempDir(), 1, Options{Policy: SyncGrouped, pace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := parkAppends(t, l, parked)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, err := range collect(t, done, parked, 10*time.Second) {
		if err != nil {
			t.Errorf("parked append %d returned %v, want nil", i, err)
		}
	}
}
