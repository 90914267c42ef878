package replica

// The -race soak: concurrent leader committers under both fsync
// policies, a checkpointer retiring segments under the session's pin,
// a tailing follower, and snapshot readers pinning MVCC versions on
// BOTH sides across segment rotations. After the storm the follower
// must converge to the leader's exact state and the version gauges
// (open snapshots, pinned versions) must settle to zero on both
// sides — the leak detector for the replication path.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"xmldyn/internal/repo"
	"xmldyn/internal/update"
	"xmldyn/internal/wal"
	"xmldyn/internal/xmltree"
)

func TestSoakReplicationUnderConcurrency(t *testing.T) {
	policies := []struct {
		name string
		opts repo.DurableOptions
	}{
		{"grouped", repo.DurableOptions{Sync: wal.SyncGrouped}},
		{"async", repo.DurableOptions{Sync: wal.SyncAsync, FlushInterval: time.Millisecond}},
	}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			opts := pol.opts
			opts.SegmentBytes = 1024 // rotate often while readers hold pins
			opts.AutoCheckpointBytes = -1
			leader, err := repo.OpenDurable(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()

			const writers = 3
			docNames := make([]string, writers)
			for w := range docNames {
				docNames[w] = fmt.Sprintf("doc%d", w)
				if err := leader.Open(docNames[w], mustParse(t, fmt.Sprintf(`<doc%d><base/></doc%d>`, w, w)), "qed"); err != nil {
					t.Fatal(err)
				}
			}
			h := newHarness(t, leader, FollowerOptions{Store: repo.DurableOptions{Sync: pol.opts.Sync}})

			var wgWrite, wgRead sync.WaitGroup
			stopRead := make(chan struct{})
			// Committers: each hammers its own document.
			const commitsPerWriter = 40
			for w := 0; w < writers; w++ {
				w := w
				wgWrite.Add(1)
				go func() {
					defer wgWrite.Done()
					for i := 0; i < commitsPerWriter; i++ {
						if _, err := leader.Batch(docNames[w], func(doc *xmltree.Document, b *update.Batch) error {
							b.AppendChild(doc.Root(), fmt.Sprintf("w%dc%d", w, i))
							return nil
						}); err != nil {
							t.Errorf("writer %d commit %d: %v", w, i, err)
							return
						}
					}
				}()
			}
			// Checkpointer: retirement racing the session's segment pin.
			wgWrite.Add(1)
			go func() {
				defer wgWrite.Done()
				for i := 0; i < 4; i++ {
					time.Sleep(3 * time.Millisecond)
					if err := leader.Checkpoint(); err != nil {
						t.Errorf("checkpoint %d: %v", i, err)
						return
					}
				}
			}()
			// Snapshot readers on both sides, pinning versions across
			// rotations and bootstrap installs.
			readSide := func(name string, snap func(names ...string) (*repo.Snapshot, error)) {
				defer wgRead.Done()
				for {
					select {
					case <-stopRead:
						return
					default:
					}
					s, err := snap()
					if err != nil {
						t.Errorf("%s snapshot: %v", name, err)
						return
					}
					for _, n := range s.Names() {
						if _, err := s.Document(n); err != nil {
							t.Errorf("%s read %q: %v", name, n, err)
						}
					}
					time.Sleep(time.Millisecond)
					s.Close()
				}
			}
			wgRead.Add(2)
			go readSide("leader", leader.Snapshot)
			go readSide("follower", h.follower.Snapshot)

			// Writers and checkpointer drain first, then the readers.
			wgWrite.Wait()
			close(stopRead)
			wgRead.Wait()

			waitUntil(t, 30*time.Second, "soak catch-up", func() bool { return caughtUp(leader, h.follower) })
			if got, want := stateXML(t, h.follower), stateXML(t, leader); !reflect.DeepEqual(got, want) {
				t.Fatalf("soak state diverged:\n got %v\nwant %v", got, want)
			}
			// Gauges settle to zero on both sides.
			waitUntil(t, 10*time.Second, "leader gauges settle", func() bool {
				vs := leader.VersionStats()
				return vs.OpenSnapshots == 0 && vs.PinnedVersions == 0
			})
			waitUntil(t, 10*time.Second, "follower gauges settle", func() bool {
				vs := h.follower.Repo().VersionStats()
				return vs.OpenSnapshots == 0 && vs.PinnedVersions == 0
			})
		})
	}
}
