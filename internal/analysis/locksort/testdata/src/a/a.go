// Package a holds golden cases for the locksort analyzer: ad-hoc
// multi-document write-lock acquisition versus the blessed
// sorted-order primitives.
package a

import "sync"

// Doc mirrors the repository document with its write lock.
type Doc struct {
	mu sync.RWMutex
}

// BadLoopLock acquires every doc's write lock through the loop
// variable and holds them past the iteration — the classic ad-hoc
// multi-lock that deadlocks against sorted order.
func BadLoopLock(docs []*Doc) {
	for _, d := range docs {
		d.mu.Lock() // want "route multi-document locking through lockLiveSorted"
	}
}

// BadLoopLockViaLocal reaches the loop variable through a local alias.
func BadLoopLockViaLocal(docs []*Doc) {
	for i := 0; i < len(docs); i++ {
		d := docs[i]
		d.mu.Lock() // want "route multi-document locking through lockLiveSorted"
	}
}

// GoodLoopLockUnlock holds at most one lock at a time.
func GoodLoopLockUnlock(docs []*Doc) {
	for _, d := range docs {
		d.mu.Lock()
		d.mu.Unlock()
	}
}

// GoodLoopRLock takes only read locks; the sorted order governs write
// locks.
func GoodLoopRLock(docs []*Doc) {
	for _, d := range docs {
		d.mu.RLock()
	}
}

// lockLiveSorted is blessed by name: the primitive itself may lock many
// docs in its loop.
func lockLiveSorted(docs []*Doc) {
	for _, d := range docs {
		d.mu.Lock()
	}
}

// BadPair write-locks a second doc while the first is still held.
func BadPair(a, b *Doc) {
	a.mu.Lock()
	b.mu.Lock() // want "while another Doc.mu lock is held"
	b.mu.Unlock()
	a.mu.Unlock()
}

// GoodSequential releases each lock before taking the next.
func GoodSequential(a, b *Doc) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// SuppressedPair documents a justified exception: both locks are
// private to this function's caller by construction.
func SuppressedPair(a, b *Doc) {
	a.mu.Lock()
	//xmldynvet:ignore locksort golden case: docs are unpublished, order fixed by construction
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}
