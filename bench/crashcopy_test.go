package main

import (
	"path/filepath"
	"testing"

	"xmldyn"
	"xmldyn/internal/wal"
)

// TestCrashCopy: under SyncPerCommit a copy cut at EndPosition()
// recovers exactly the commits acknowledged before the cut — commits
// that land afterwards, while the files are being copied, stay out —
// and a copy cut one frame earlier is seen to miss an acknowledged
// commit.
func TestCrashCopy(t *testing.T) {
	c, _ := workloadByName("ckpt_restart")
	c = c.scaled(0.02)
	if c.Sync != wal.SyncPerCommit {
		t.Fatal("ckpt_restart must commit under SyncPerCommit")
	}
	base := t.TempDir()
	w, err := setup(c, 3, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()

	if _, err := w.commitN(0, 5); err != nil {
		t.Fatal(err)
	}
	oneEarlier, _ := w.leader.EndPosition()
	if _, err := w.commitN(0, 1); err != nil {
		t.Fatal(err)
	}
	end, ok := w.leader.EndPosition()
	if !ok || !oneEarlier.Less(end) {
		t.Fatalf("log end did not advance: %v then %v", oneEarlier, end)
	}
	acknowledged, err := serialize(w.leader)
	if err != nil {
		t.Fatal(err)
	}
	// The leader keeps committing while its directory is copied.
	if _, err := w.commitN(0, 7); err != nil {
		t.Fatal(err)
	}

	recoverCopy := func(name string, at wal.Position) string {
		dir := filepath.Join(base, name)
		if err := crashCopy(w.dir, dir, at); err != nil {
			t.Fatal(err)
		}
		rec, err := xmldyn.NewDurableRepository(dir, c.durableOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		return recoveredDiff(rec, acknowledged)
	}
	if diff := recoverCopy("at-end", end); diff != "" {
		t.Errorf("copy cut at the acknowledged end: %s", diff)
	}
	if diff := recoverCopy("one-frame-short", oneEarlier); diff == "" {
		t.Error("a copy missing the last acknowledged commit passed the check")
	}
}
