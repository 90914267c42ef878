// Replica demonstrates WAL-shipping read replicas: a durable leader
// repository with a Shipper serving on a real TCP listener, and
// followers that bootstrap, tail the log live, and serve lock-free
// MVCC snapshot reads with an explicit staleness bound. The demo
// attaches one follower before a commit burst (it tails live and its
// Lag drains to 0), reads the same snapshot state from both sides,
// then checkpoints the leader and cold-attaches a second follower —
// which bootstraps from the checkpoint instead of replaying history —
// and finally prints the shipper's per-session accounting.
// docs/REPLICATION.md specifies the protocol this walks over;
// docs/OPERATIONS.md §10 is the staleness triage guide.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"xmldyn"
)

// tmpDir makes a throwaway state directory, registering cleanup.
func tmpDir(prefix string, cleanups *[]func()) string {
	dir, err := os.MkdirTemp("", prefix)
	if err != nil {
		log.Fatal(err)
	}
	*cleanups = append(*cleanups, func() { os.RemoveAll(dir) })
	return dir
}

// awaitCaughtUp polls until the follower's position reaches the
// leader's durable end with Lag 0, printing the lag it saw on the way
// — the staleness bound an operator would watch.
func awaitCaughtUp(label string, leader *xmldyn.DurableRepository, f *xmldyn.Follower) {
	deadline := time.Now().Add(30 * time.Second)
	var peak uint64
	for {
		if l := f.Lag(); l > peak {
			peak = l
		}
		end, ok := leader.EndPosition()
		if ok && f.Position() == end && f.Lag() == 0 {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("%s: follower stuck at lag %d", label, f.Lag())
		}
		time.Sleep(200 * time.Microsecond)
	}
	fmt.Printf("%s: caught up at %v, lag %d (peak observed lag %d bytes)\n",
		label, f.Position(), f.Lag(), peak)
}

func main() {
	commits := flag.Int("commits", 200, "batches to commit while the live follower tails")
	flag.Parse()
	var cleanups []func()
	defer func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}()

	// Leader: a durable repository plus a shipper on a real listener.
	leader, err := xmldyn.NewDurableRepository(tmpDir("xmldyn-replica-leader-", &cleanups),
		xmldyn.DurableOptions{Sync: xmldyn.SyncGrouped, AutoCheckpointBytes: -1})
	if err != nil {
		log.Fatal(err)
	}
	defer leader.Close()
	doc, err := xmldyn.ParseString(`<feed><entry seq="0"/></feed>`)
	if err != nil {
		log.Fatal(err)
	}
	if err := leader.Open("feed", doc, "qed"); err != nil {
		log.Fatal(err)
	}
	shipper := xmldyn.NewShipper(leader, xmldyn.ShipperOptions{Heartbeat: 2 * time.Millisecond})
	defer shipper.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = shipper.Serve(ln) }()
	addr := ln.Addr().String()
	fmt.Printf("leader shipping WAL on %s\n", addr)
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }

	// Live follower: attaches before the burst, tails record by record.
	live, err := xmldyn.OpenFollower(tmpDir("xmldyn-replica-live-", &cleanups),
		xmldyn.FollowerOptions{Store: xmldyn.DurableOptions{Sync: xmldyn.SyncGrouped}, Dial: dial, AckEvery: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer live.Close()
	go func() { _ = live.Run() }()
	awaitCaughtUp("live follower (initial sync)", leader, live)

	// Commit burst while the follower tails.
	start := time.Now()
	for i := 1; i <= *commits; i++ {
		_, err := leader.Batch("feed", func(doc *xmldyn.Document, b *xmldyn.Batch) error {
			root := doc.Root()
			b.InsertAfter(root.LastChild(), "entry")
			b.SetAttr(root, "entries", fmt.Sprintf("%d", i+1))
			return nil
		})
		if err != nil {
			log.Fatalf("commit %d: %v", i, err)
		}
	}
	fmt.Printf("committed %d batches in %v\n", *commits, time.Since(start).Round(time.Millisecond))
	awaitCaughtUp("live follower (post-burst)", leader, live)

	// Reads are lock-free MVCC snapshots on both sides; a caught-up
	// follower serves byte-for-byte the leader's committed state.
	lsnap, err := leader.Snapshot("feed")
	if err != nil {
		log.Fatal(err)
	}
	defer lsnap.Close()
	fsnap, err := live.Snapshot("feed")
	if err != nil {
		log.Fatal(err)
	}
	defer fsnap.Close()
	ldoc, err := lsnap.Document("feed")
	if err != nil {
		log.Fatal(err)
	}
	fdoc, err := fsnap.Document("feed")
	if err != nil {
		log.Fatal(err)
	}
	if ldoc.XML() != fdoc.XML() {
		log.Fatal("follower snapshot diverged from leader")
	}
	fmt.Printf("snapshot reads agree: %d entries on both sides\n", len(fdoc.Root().Children()))

	// Checkpoint, then cold-attach a second follower: it is too far
	// behind to resume (the checkpoint retired the history), so the
	// shipper bootstraps it from the snapshot files instead.
	if err := leader.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	cold, err := xmldyn.OpenFollower(tmpDir("xmldyn-replica-cold-", &cleanups),
		xmldyn.FollowerOptions{Store: xmldyn.DurableOptions{Sync: xmldyn.SyncGrouped}, Dial: dial, AckEvery: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer cold.Close()
	go func() { _ = cold.Run() }()
	awaitCaughtUp("cold follower (checkpoint bootstrap)", leader, cold)

	for i, s := range shipper.Sessions() {
		fmt.Printf("session %d: sent %v, acked %v, bootstrapped=%v\n", i, s.Sent, s.Acked, s.Bootstrapped)
	}
}
