package wal

import (
	"errors"
	"fmt"
	"sync/atomic"
	"syscall"
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

// createLog creates segment 1 of a log in dir and closes it at cleanup
// (after a script's cleanup has released any fsync it held).
func createLog(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Create(dir, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestZeroPolicyWaitsOnFlusher: the zero Options is the durable policy,
// and a durable append has one way back — an fsync that covers it, here
// only the flusher's — so four concurrent appends park while the
// flusher's first fsync is held, none returns before it is released, and
// each returns nil after.
func TestZeroPolicyWaitsOnFlusher(t *testing.T) {
	const writers = 4
	l := createLog(t, t.TempDir(), Options{})
	s := script(t, l, 1)
	var released atomic.Bool
	type result struct {
		err   error
		early bool
	}
	done := make(chan result, writers)
	for range writers {
		go func() {
			err := l.Append([]byte("waits"))
			done <- result{err, !released.Load()}
		}()
	}
	awaitHeld(t, s)
	waitUntil(t, l, "4 appends numbered", func() bool { return l.appended == writers })
	released.Store(true)
	s.release <- nil
	for range writers {
		r := <-done
		if r.err != nil {
			t.Errorf("append returned %v", r.err)
		}
		if r.early {
			t.Error("append returned before the flusher's fsync was released")
		}
	}
}

// clock reads l's durability clock.
func clock(l *Log) (appended, synced uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended, l.synced
}

// waitUntil polls cond under l.mu until it holds. Its deadline only
// fails a hung test.
func waitUntil(t *testing.T, l *Log, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		ok := cond()
		l.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("not within 10s: %s", what)
		}
	}
}

// awaitHeld returns once s holds its scripted Sync.
func awaitHeld(t *testing.T, s *scripted) {
	t.Helper()
	select {
	case <-s.held:
	case <-time.After(10 * time.Second):
		t.Fatal("no fsync held within 10s")
	}
}

// parkAppends starts n grouped appends on l and returns once s holds its
// scripted Sync and all n hold a sequence number, with their results to
// come on the channel. The first call on a log whose first flusher fsync
// is held parks its appends behind that round.
func parkAppends(t *testing.T, l *Log, s *scripted, n int) <-chan error {
	t.Helper()
	before, _ := clock(l)
	done := make(chan error, n)
	for range n {
		go func() { done <- l.Append([]byte("parked")) }()
	}
	awaitHeld(t, s)
	waitUntil(t, l, fmt.Sprintf("%d appends numbered", n), func() bool { return l.appended == before+uint64(n) })
	return done
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
// parked behind a held flusher fsync, and no append it was to cover is
// durable. Every parked append and every later one returns the failure,
// and none hangs.
//   - failed fsync: three appends sync and return nil, then the held
//     fsync fails. The log is poisoned at its sequence number: synced
//     stays 3.
//   - failed write, then Close: a later append's write fails while the
//     round is held, and the parked appends return its failure at once.
//     The held fsync then succeeds, and neither it nor Close counts on
//     a failed log.
func TestFailedGroupedSyncReachesEveryWaiter(t *testing.T) {
	const parked = 6
	t.Run("failed fsync", func(t *testing.T) {
		l := createLog(t, t.TempDir(), Options{})
		s := script(t, l, 4)
		for i := range 3 {
			if err := l.Append([]byte("synced")); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		done := parkAppends(t, l, s, parked)
		s.release <- syscall.EIO
		for i, err := range collect(t, done, parked, 10*time.Second) {
			if !errors.Is(err, syscall.EIO) {
				t.Errorf("parked append %d returned %v, want the failed fsync's EIO", i, err)
			}
		}
		if appended, synced := clock(l); appended != 3+parked || synced != 3 {
			t.Errorf("appended %d, synced %d, want %d and 3", appended, synced, 3+parked)
		}
		for i := range 3 {
			if err := l.Append([]byte("later")); !errors.Is(err, syscall.EIO) {
				t.Errorf("append %d after the failure returned %v, want EIO", i, err)
			}
		}
	})
	t.Run("failed write, then Close", func(t *testing.T) {
		l := createLog(t, t.TempDir(), Options{})
		s := script(t, l, 1)
		done := parkAppends(t, l, s, parked)
		s.tear(0, syscall.EIO)
		if err := l.Append([]byte("unwritable")); !errors.Is(err, syscall.EIO) {
			t.Fatalf("append whose write fails returned %v", err)
		}
		for i, err := range collect(t, done, parked, 10*time.Second) {
			if !errors.Is(err, syscall.EIO) {
				t.Errorf("parked append %d returned %v, want the failed write's EIO", i, err)
			}
		}
		s.release <- nil
		l.Close()
		if _, synced := clock(l); synced != 0 {
			t.Errorf("synced %d: an fsync that succeeded after the failed write counted", synced)
		}
		for i := range 3 {
			if err := l.Append([]byte("later")); err == nil {
				t.Errorf("append %d after the failure returned nil", i)
			}
		}
	})
}

// TestCloseAndRotateReleaseParkedAppends: a rotation's seal and Close's
// final sync cover every append numbered before them. One append is in
// the flusher's held round, and five more park behind it. The seal
// returns all six while the round is still held; Close, once the round is
// released, returns the five that round did not cover. Every record
// replays.
func TestCloseAndRotateReleaseParkedAppends(t *testing.T) {
	const parked = 5
	for _, release := range []string{"Rotate", "Close"} {
		t.Run(release, func(t *testing.T) {
			dir := t.TempDir()
			l := createLog(t, dir, Options{})
			s := script(t, l, 1)
			lead := parkAppends(t, l, s, 1)
			done := parkAppends(t, l, s, parked)
			if release == "Rotate" {
				if _, err := l.Rotate(); err != nil {
					t.Fatalf("Rotate: %v", err)
				}
			} else {
				closed := make(chan error, 1)
				go func() { closed <- l.Close() }()
				waitUntil(t, l, "Close begun", func() bool { return l.closed })
				s.release <- nil
				if err := <-closed; err != nil {
					t.Fatalf("Close: %v", err)
				}
			}
			for i, err := range collect(t, done, parked, 10*time.Second) {
				if err != nil {
					t.Errorf("parked append %d returned %v, want nil", i, err)
				}
			}
			if err := collect(t, lead, 1, 10*time.Second)[0]; err != nil {
				t.Errorf("the held round's append returned %v, want nil", err)
			}
			if release == "Rotate" {
				s.release <- nil
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got, _ := replayAll(t, dir, 1); len(got) != 1+parked {
				t.Fatalf("replayed %d records, want %d", len(got), 1+parked)
			}
		})
	}
}

// TestParkedAppendsShareOneRound: appends that arrive while a flusher
// fsync is in flight share the next one. One append is in the held first
// round, five park behind it, and once it is released all six return nil
// after exactly two fsyncs.
func TestParkedAppendsShareOneRound(t *testing.T) {
	const parked = 5
	l := createLog(t, t.TempDir(), Options{})
	s := script(t, l, 1)
	lead := parkAppends(t, l, s, 1)
	done := parkAppends(t, l, s, parked)
	s.release <- nil
	for i, err := range append(collect(t, lead, 1, 10*time.Second), collect(t, done, parked, 10*time.Second)...) {
		if err != nil {
			t.Errorf("append %d returned %v, want nil", i, err)
		}
	}
	if got := s.count(); got != 2 {
		t.Errorf("%d appends made %d fsyncs, want 2: the held round and one for the five parked", 1+parked, got)
	}
}

// TestIdleFlusherMakesNoFsync: an async flusher round with nothing to
// cover makes no fsync — neither when every append is synced nor on a
// failed log. The async ticker is the policy's own clock, so this test
// counts the fsyncs of 100 ticks' time.
func TestIdleFlusherMakesNoFsync(t *testing.T) {
	for _, c := range []struct {
		name string
		fail error // what the first fsync returns
	}{{"synced", nil}, {"failed", syscall.EIO}} {
		t.Run(c.name, func(t *testing.T) {
			l := createLog(t, t.TempDir(), Options{Policy: SyncAsync, FlushInterval: time.Millisecond})
			s := script(t, l, 1)
			if err := l.Append([]byte("idle after this")); err != nil {
				t.Fatal(err)
			}
			awaitHeld(t, s)
			s.release <- c.fail
			waitUntil(t, l, "the first round settled", func() bool { return l.synced == 1 || l.err != nil })
			before := s.count()
			time.Sleep(100 * time.Millisecond)
			if got := s.count() - before; got != 0 {
				t.Errorf("an idle log made %d fsyncs in 100 ticks, want 0", got)
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
// before it, so grouped appends parked behind a held flusher fsync return
// nil at once.
func TestSyncReleasesParkedAppends(t *testing.T) {
	const parked = 4
	l := createLog(t, t.TempDir(), Options{})
	s := script(t, l, 1)
	done := parkAppends(t, l, s, parked)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, err := range collect(t, done, parked, 10*time.Second) {
		if err != nil {
			t.Errorf("parked append %d returned %v, want nil", i, err)
		}
	}
}
