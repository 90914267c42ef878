// Leader-side replication hooks (docs/REPLICATION.md). A shipper
// (internal/replica) streaming the WAL to followers needs four things
// from the durable repository, all provided here: the log's append
// end (to decide bootstrap vs resume and to report staleness), a whole
// checkpoint image (to bootstrap a follower that cannot resume),
// segment pins (so a checkpoint cannot retire segments the shipper has
// yet to stream), and commit notifications (so a tailing reader wakes
// without polling).

package repo

import (
	"math"

	"xmldyn/internal/store"
	"xmldyn/internal/wal"
)

// EndPosition returns the log's current append position: every record
// committed so far lies strictly below it. ok is false on a closed
// repository.
func (d *DurableRepository) EndPosition() (wal.Position, bool) {
	d.commitMu.RLock()
	defer d.commitMu.RUnlock()
	if d.closed {
		return wal.Position{}, false
	}
	return d.log.Position(), true
}

// BootstrapImage reads the current checkpoint image: the current pack
// and every older pack it references. It holds the checkpoint lock
// while it reads, so no checkpoint can switch packs or retire one the
// image needs in the middle, and the image is whole. A running
// checkpoint delays the read until it finishes.
func (d *DurableRepository) BootstrapImage() (store.BootstrapImage, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return store.LoadBootstrapImage(d.dir)
}

// SegmentPin protects a suffix of the live WAL segment set from
// checkpoint retirement: as long as the pin is held, no segment at or
// above its floor is deleted. Pins are in-memory only — they do not
// survive a restart (a follower whose segments were retired while it
// was away simply re-bootstraps from the checkpoint).
type SegmentPin struct {
	d  *DurableRepository
	id uint64
}

// PinSegments registers a pin at the current first live segment and
// returns it together with that index — the lowest segment the caller
// may still read. Advance the pin as the reader's needs move forward;
// Release it when done.
func (d *DurableRepository) PinSegments() (*SegmentPin, uint64, error) {
	d.commitMu.RLock()
	defer d.commitMu.RUnlock()
	if d.closed {
		return nil, 0, ErrClosed
	}
	d.pinMu.Lock()
	defer d.pinMu.Unlock()
	if d.pins == nil {
		d.pins = make(map[uint64]uint64)
	}
	d.pinSeq++
	d.pins[d.pinSeq] = d.walFirst
	return &SegmentPin{d: d, id: d.pinSeq}, d.walFirst, nil
}

// Advance raises the pin's floor to first: segments below it no longer
// need protection. Lowering is a no-op (floors are monotone, so a
// racing stale Advance cannot re-expose retired segments).
func (p *SegmentPin) Advance(first uint64) {
	p.d.pinMu.Lock()
	defer p.d.pinMu.Unlock()
	if cur, ok := p.d.pins[p.id]; ok && cur < first {
		p.d.pins[p.id] = first
	}
}

// Release drops the pin. Segments it protected are retired by the next
// checkpoint. Releasing twice is harmless.
func (p *SegmentPin) Release() {
	p.d.pinMu.Lock()
	defer p.d.pinMu.Unlock()
	delete(p.d.pins, p.id)
}

// pinFloor returns the lowest floor across live pins, or MaxUint64
// when none are held — the retirement sweep deletes only below it.
func (d *DurableRepository) pinFloor() uint64 {
	d.pinMu.Lock()
	defer d.pinMu.Unlock()
	floor := uint64(math.MaxUint64)
	for _, f := range d.pins {
		if f < floor {
			floor = f
		}
	}
	return floor
}

// CommitNotify registers ch for commit notifications: after every
// durable append and every checkpoint cut, a nudge is sent without
// blocking (ch should have capacity 1; a full channel means a wake-up
// is already pending, which is all a tailing reader needs). Deregister
// with StopCommitNotify.
func (d *DurableRepository) CommitNotify(ch chan<- struct{}) {
	d.notifyMu.Lock()
	defer d.notifyMu.Unlock()
	d.notify = append(d.notify, ch)
}

// StopCommitNotify deregisters ch. No nudge is sent after it returns.
func (d *DurableRepository) StopCommitNotify(ch chan<- struct{}) {
	d.notifyMu.Lock()
	defer d.notifyMu.Unlock()
	for i, c := range d.notify {
		if c == ch {
			d.notify = append(d.notify[:i], d.notify[i+1:]...)
			return
		}
	}
}

// nudgeShippers nudges every channel registered with CommitNotify (the
// replication shippers' wake-ups) without blocking.
func (d *DurableRepository) nudgeShippers() {
	d.notifyMu.Lock()
	defer d.notifyMu.Unlock()
	for _, ch := range d.notify {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}
