package wal

import (
	"sync"
	"testing"
)

// scripted is a fake active segment that a test swaps in for a log's
// file: it writes to and syncs the real file underneath, but it can hold
// one numbered Sync until the test releases it — or fail it — and tear
// one Write after some bytes, and it counts its syncs.
type scripted struct {
	segment // the real file

	mu    sync.Mutex
	syncs int // Sync calls so far
	// holdAt numbers the Sync to hold (1 is the first after the swap;
	// 0 holds none). The held Sync fsyncs the real file, closes held and
	// returns what is released, or the fsync's error when that is nil.
	holdAt  int
	held    chan struct{}
	release chan error
	// tearAt bytes of the next Write land before it returns tearErr;
	// tearErr nil tears nothing.
	tearAt  int
	tearErr error
}

// script swaps a scripted segment in for l's active segment, holding
// its holdAt-th Sync (0 holds none). Cleanup releases a held Sync the
// test left held, so a failed test's Close does not hang.
func script(t *testing.T, l *Log, holdAt int) *scripted {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &scripted{segment: l.f, holdAt: holdAt, held: make(chan struct{}), release: make(chan error, 1)}
	l.f = s
	t.Cleanup(func() {
		select {
		case s.release <- nil:
		default:
		}
	})
	return s
}

func (s *scripted) Sync() error {
	s.mu.Lock()
	s.syncs++
	hold := s.syncs == s.holdAt
	s.mu.Unlock()
	err := s.segment.Sync()
	if hold {
		close(s.held)
		if failed := <-s.release; failed != nil {
			return failed
		}
	}
	return err
}

func (s *scripted) Write(p []byte) (int, error) {
	s.mu.Lock()
	k, err := s.tearAt, s.tearErr
	s.tearErr = nil
	s.mu.Unlock()
	if err == nil {
		return s.segment.Write(p)
	}
	n, _ := s.segment.Write(p[:min(k, len(p))])
	return n, err
}

// tear makes the next Write land its first k bytes and fail with err.
func (s *scripted) tear(k int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tearAt, s.tearErr = k, err
}

// count reads how many Syncs the segment has had.
func (s *scripted) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}
