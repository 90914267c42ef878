package replica

// The property test: random schedules of single-document batches,
// cross-document multi-batches, document opens and drops, segment
// rotations (via a small segment size) and checkpoints, replicated
// live to a follower. At every sync point the follower's trees must
// equal the crash-recovery oracle — the state OpenDurable recovers
// from a byte-level image of the leader directory taken at that
// instant. The oracle is what PR 7's crash matrix proved correct, so
// agreement here chains replication's correctness to recovery's.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"xmldyn/internal/repo"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// copyDirImage copies every regular file in src into a fresh
// directory — the bytes a crash at this instant would leave behind
// (durable (grouped) sync makes every committed record durable).
func copyDirImage(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// oracleStateXML recovers a leader image with OpenDurable and returns
// its document trees — the crash-recovery oracle.
func oracleStateXML(t *testing.T, imageDir string) map[string]string {
	t.Helper()
	rec, err := repo.OpenDurable(imageDir, repo.DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatalf("oracle recovery: %v", err)
	}
	defer rec.Close()
	snap, err := rec.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	out := map[string]string{}
	for _, name := range snap.Names() {
		doc, err := snap.Document(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = doc.XML()
	}
	return out
}

func TestPropertyFollowerMatchesCrashRecoveryOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			leaderDir := t.TempDir()
			leader, err := repo.OpenDurable(leaderDir, repo.DurableOptions{
				SegmentBytes:        int64(256 + rng.Intn(512)),
				AutoCheckpointBytes: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()

			docs := []string{"d0", "d1"}
			for _, name := range docs {
				if err := leader.Open(name, mustParse(t, fmt.Sprintf(`<%s><seed/></%s>`, name, name)), "qed"); err != nil {
					t.Fatal(err)
				}
			}
			h := newHarness(t, leader, FollowerOptions{AckEvery: 1 + rng.Intn(4)})

			step := func(i int) {
				switch k := rng.Intn(10); {
				case k < 5: // single-document batch
					name := docs[rng.Intn(len(docs))]
					if _, err := leader.Batch(name, func(doc *xmltree.Document, b *update.Batch) error {
						root := doc.Root()
						child := b.AppendChild(root, fmt.Sprintf("n%d", i))
						child.SetAttr(root, "step", fmt.Sprintf("%d", i))
						if kids := root.Children(); len(kids) > 3 && rng.Intn(2) == 0 {
							b.Delete(kids[1+rng.Intn(len(kids)-1)])
						}
						return nil
					}); err != nil {
						t.Fatalf("step %d batch: %v", i, err)
					}
				case k < 7 && len(docs) >= 2: // cross-document transaction
					pair := []string{docs[0], docs[len(docs)-1]}
					if _, err := leader.MultiBatch(pair, func(m map[string]*repo.MultiDoc) error {
						for _, name := range pair {
							m[name].Batch().AppendChild(m[name].Document().Root(), fmt.Sprintf("multi%d", i))
						}
						return nil
					}); err != nil {
						t.Fatalf("step %d multi: %v", i, err)
					}
				case k < 8: // open a new document
					name := fmt.Sprintf("doc%d", i)
					if err := leader.Open(name, mustParse(t, fmt.Sprintf(`<%s/>`, name)), "deweyid"); err != nil {
						t.Fatalf("step %d open: %v", i, err)
					}
					docs = append(docs, name)
				case k < 9 && len(docs) > 2: // drop a late-added document
					name := docs[len(docs)-1]
					if _, err := leader.Drop(name); err != nil {
						t.Fatalf("step %d drop: %v", i, err)
					}
					docs = docs[:len(docs)-1]
				default: // checkpoint (also exercises pin-vs-retirement)
					if err := leader.Checkpoint(); err != nil {
						t.Fatalf("step %d checkpoint: %v", i, err)
					}
				}
			}

			const steps = 36
			for i := 0; i < steps; i++ {
				step(i)
				if i%6 != 5 && i != steps-1 {
					continue
				}
				// Sync point: follower caught up, then compare against
				// the crash-recovery oracle of this exact instant.
				waitUntil(t, 10*time.Second, fmt.Sprintf("catch-up at step %d", i),
					func() bool { return caughtUp(leader, h.follower) })
				image := copyDirImage(t, leaderDir)
				want := oracleStateXML(t, image)
				if got := stateXML(t, h.follower); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: follower diverged from crash-recovery oracle:\n got %v\nwant %v", i, got, want)
				}
			}
			for _, name := range h.follower.Repo().Names() {
				if err := h.follower.Repo().Verify(name); err != nil {
					t.Fatalf("final verify %q: %v", name, err)
				}
			}
		})
	}
}
