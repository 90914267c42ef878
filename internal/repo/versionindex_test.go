package repo

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/update"
	"xmldyn/internal/workload"
	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

// The tests of a version's element index: each published version keeps
// the lists its reads by name build, and every snapshot of it shares
// them (version.go, versionRead).

// listNames is the alphabet the version-list tests name elements from.
var listNames = []string{"a", "b", "c"}

// named matches the elements called name.
func named(name string) func(*xmltree.Node) bool {
	return func(n *xmltree.Node) bool { return n.Kind() == xmltree.KindElement && n.Name() == name }
}

// rendered spells nodes out, one after the other.
func rendered(nodes []*xmltree.Node) string {
	var sb strings.Builder
	for _, n := range nodes {
		sb.WriteString(xmltree.OuterXML(n))
		sb.WriteByte('|')
	}
	return sb.String()
}

// versionBatch builds one to three random ops on doc: inserts, deletes,
// renames, moves (a delete and a graft of a copy) and a double delete,
// which fails the batch. An op may also fail because an earlier op of
// the batch removed its target.
func versionBatch(rng *rand.Rand, doc *xmltree.Document, b *update.Batch) {
	elems := xmltree.Descendants(doc.Node(), func(n *xmltree.Node) bool { return n.Kind() == xmltree.KindElement })
	pick := func() *xmltree.Node { return elems[rng.Intn(len(elems))] }
	name := func() string { return listNames[rng.Intn(len(listNames))] }
	for range 1 + rng.Intn(3) {
		n := pick()
		switch op := rng.Intn(7); {
		case op < 2 || n == doc.Root() || (op == 3 && len(elems) < 12):
			b.AppendChild(n, name())
		case op == 2:
			b.InsertBefore(n, name())
		case op == 3:
			b.Delete(n)
		case op == 4:
			b.Rename(n, name())
		case op == 5:
			to := pick()
			for p := to; p != nil; p = p.Parent() {
				if p == n {
					to = doc.Root()
					break
				}
			}
			b.Delete(n).Add(update.AppendSubtreeOp(to, n.Clone()))
		default:
			b.Delete(n).Delete(n)
		}
	}
}

// heldSnapshot is a snapshot the differential test keeps open, with its
// version's tree and, per name, the live answer when it was pinned.
type heldSnapshot struct {
	snap *Snapshot
	doc  *xmltree.Document
	at   map[string]string
}

// TestVersionListsMatchWalk: on every scheme the repository admits, a
// seeded stream of batches — inserts, deletes, renames, moves and
// failing batches — runs on one document, and snapshots are pinned at
// random points, up to four held open at once. A new snapshot reads
// each name first; a second snapshot of the same version then reads it
// warm, and must be handed the same list. After every commit, every
// held snapshot reads each name again. Each //n answer must be what
// xmltree.Descendants finds in the snapshot's own version, and spell
// what the live document held when it was pinned, so an old version
// never shows a newer node; /*//n, which reads the run of the list
// below the root element, must agree with the walk engine. In the
// walked mode the live document is never read by
// name, so each version's first read of a name walks it; in the
// captured mode every name is read live before each pin, so the pin
// hands the version the live lists (xpath.Index.Capture), and the
// version's first read of each name must examine only its answer.
func TestVersionListsMatchWalk(t *testing.T) {
	commits := 300
	if testing.Short() {
		commits = 30
	}
	for _, scheme := range core.Registry() {
		if !scheme.UniqueLabels {
			continue // the repository refuses it
		}
		t.Run(scheme.Name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []string{"walked", "captured"} {
				t.Run(mode, func(t *testing.T) {
					t.Parallel()
					versionListsMatchWalk(t, scheme.Name, mode == "captured", commits)
				})
			}
		})
	}
}

// versionListsMatchWalk is one run of TestVersionListsMatchWalk.
func versionListsMatchWalk(t *testing.T, scheme string, captured bool, commits int) {
	r := New()
	if err := r.Open("d", mustParse(t, "<r><a><b/><c/></a><b><a/></b><c/></r>"), scheme); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var held []heldSnapshot
	defer func() {
		for _, h := range held {
			h.snap.Close()
		}
	}()
	check := func(h heldSnapshot, where string) {
		t.Helper()
		for _, name := range listNames {
			got, err := h.snap.Query("d", "//"+name)
			if err != nil {
				t.Fatalf("%s, //%s: %v", where, name, err)
			}
			if want := xmltree.Descendants(h.doc.Node(), named(name)); !slices.Equal(got, want) {
				t.Fatalf("%s, //%s: the version's list has %d nodes, its walk %d", where, name, len(got), len(want))
			}
			if s := rendered(got); s != h.at[name] {
				t.Fatalf("%s, //%s answers %s; at its pin the document held %s", where, name, s, h.at[name])
			}
			deep := "/*//" + name
			got, err = h.snap.Query("d", deep)
			want, werr := xpath.New(h.doc, nil, xpath.ModeStructural).Query(deep)
			if err != nil || werr != nil || !slices.Equal(got, want) {
				t.Fatalf("%s, %s: %d nodes (%v), the walk %d (%v)", where, deep, len(got), err, len(want), werr)
			}
		}
	}
	pin := func(where string) {
		t.Helper()
		if captured {
			for _, name := range listNames {
				if err := r.QueryFunc("d", "//"+name, func([]*xmltree.Node) error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
		}
		snap, err := r.Snapshot("d")
		if err != nil {
			t.Fatal(err)
		}
		if captured {
			e, err := snap.entry("d")
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range listNames {
				eng := xpath.Indexed(e.read.view.Document(), &e.read.index)
				if got, err := eng.Query("//" + name); err != nil || eng.Examined() != len(got) {
					t.Fatalf("%s, //%s: the version's first read examined %d nodes for %d (%v); want it handed the captured list", where, name, eng.Examined(), len(got), err)
				}
			}
		}
		h := heldSnapshot{snap: snap, at: map[string]string{}}
		if h.doc, err = snap.Document("d"); err != nil {
			t.Fatal(err)
		}
		if err := r.View("d", func(s *update.Session) error {
			for _, name := range listNames {
				h.at[name] = rendered(xmltree.Descendants(s.Document().Node(), named(name)))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		check(h, where+", first read")
		twin, err := r.Snapshot("d")
		if err != nil {
			t.Fatal(err)
		}
		check(heldSnapshot{snap: twin, doc: h.doc, at: h.at}, where+", warm read on a twin")
		for _, name := range listNames {
			a, _ := snap.Query("d", "//"+name)
			b, _ := twin.Query("d", "//"+name)
			if len(a) > 0 && &a[0] != &b[0] {
				t.Fatalf("%s, //%s: two snapshots of one version hold two lists", where, name)
			}
		}
		twin.Close()
		if len(held) == 4 {
			held[0].snap.Close()
			held = held[1:]
		}
		held = append(held, h)
	}
	pin("the opened document")
	applied := 0
	for i := range commits {
		if _, err := r.Batch("d", func(doc *xmltree.Document, b *update.Batch) error {
			versionBatch(rng, doc, b)
			return nil
		}); err == nil {
			applied++
		}
		where := fmt.Sprintf("%s commit %d", scheme, i)
		for k, h := range held {
			check(h, fmt.Sprintf("%s, snapshot %d of %d", where, k+1, len(held)))
		}
		if rng.Intn(3) == 0 {
			pin(where)
		}
	}
	if applied < commits/3 {
		t.Fatalf("only %d of %d batches committed", applied, commits)
	}
	t.Logf("%d of %d batches committed; %d elements at the end", applied, commits, len(xmltree.Descendants(held[len(held)-1].doc.Node(), func(n *xmltree.Node) bool { return n.Kind() == xmltree.KindElement })))
}

// TestVersionListsRaceReadersPinsAndClose: several snapshots of one
// version read names for the first time and warm at once, so a name's
// list is built beside readers of it and of other names. Around them a
// writer commits, pinners pin, read and close snapshots of their own,
// and one of the round's snapshots is closed while its readers query
// it. Every answer a reader gets is what a walk of its snapshot's
// version finds, and an append to it copies. Run with -race.
func TestVersionListsRaceReadersPinsAndClose(t *testing.T) {
	const rounds = 100
	r := New()
	if err := r.Open("a", mustParse(t, "<r><s><t/><u/></s><s/><s><t k='1'/></s></r>"), "qed"); err != nil {
		t.Fatal(err)
	}
	names := []string{"t", "u", "s", "item"}
	query := func(snap *Snapshot, doc *xmltree.Document, name string) error {
		nodes, err := snap.Query("a", "//"+name)
		if errors.Is(err, ErrSnapshotClosed) {
			return nil
		}
		if err != nil {
			return err
		}
		if want := xmltree.Descendants(doc.Node(), named(name)); !slices.Equal(nodes, want) {
			return fmt.Errorf("//%s: %d nodes, the version's walk %d", name, len(nodes), len(want))
		}
		_ = append(nodes, nil) // a capacity-limited answer copies
		return nil
	}
	kick := make(chan int)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer: one commit a round, while the round reads
		defer wg.Done()
		for i := range kick {
			_, err := r.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
				root := doc.Root()
				kids := root.Children()
				switch s := kids[i%3]; i % 4 {
				case 3:
					b.AppendChild(root, "item").Delete(s).Delete(s) // the second delete fails
				case 1:
					if c := s.FirstChild(); c != nil {
						b.Rename(c, map[string]string{"t": "u", "u": "t", "item": "t"}[c.Name()])
					}
				case 2:
					if last := kids[len(kids)-1]; last.Name() == "item" {
						b.Delete(last)
					}
				default:
					b.AppendChild(root, "item").AppendChild(s, "u")
				}
				return nil
			})
			if (err != nil) != (i%4 == 3) {
				t.Errorf("commit %d: %v", i, err)
			}
		}
	}()
	for p := range 2 {
		wg.Add(1)
		go func() { // a pinner
			defer wg.Done()
			for i := p; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap, err := r.Snapshot("a")
				if err != nil {
					t.Error(err)
					return
				}
				doc, _ := snap.Document("a")
				err = query(snap, doc, names[i%len(names)])
				snap.Close()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for round := range rounds {
		// No commit runs between these pins: they share one version.
		snaps := make([]*Snapshot, 3)
		docs := make([]*xmltree.Document, 3)
		for i := range snaps {
			var err error
			if snaps[i], err = r.Snapshot("a"); err != nil {
				t.Fatal(err)
			}
			docs[i], _ = snaps[i].Document("a")
		}
		var readers sync.WaitGroup
		for i, snap := range snaps {
			for g := range 2 {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for k := range 2 * len(names) {
						if err := query(snap, docs[i], names[(g+i+k)%len(names)]); err != nil {
							t.Errorf("round %d: %v", round, err)
							return
						}
					}
				}()
			}
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			snaps[round%len(snaps)].Close()
		}()
		kick <- round
		readers.Wait()
		for _, snap := range snaps {
			snap.Close()
		}
	}
	close(kick)
	close(done)
	wg.Wait()
	if err := r.Verify("a"); err != nil {
		t.Fatal(err)
	}
}

// liveHeap returns the bytes the heap holds once garbage is collected.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestClosedSnapshotsKeepNoLists: 1 000 rounds of commit, pin, //item
// and Close, with every closed Snapshot kept. Each round's version is
// superseded by the next commit and unpinned by its Close, so it drops
// its view, its shells and its list, and the live heap grows only by
// what a kept Snapshot still holds: the struct and its version's
// descriptor. A version or a closed snapshot that kept what its readers
// read would keep a spine, shells and a list each round.
func TestClosedSnapshotsKeepNoLists(t *testing.T) {
	const rounds = 1000
	r, write := allocRepo(t, sectionsXML(t, 2000), leafOf)
	kept := make([]*Snapshot, 0, rounds+1)
	round := func() {
		write()
		snap, err := r.Snapshot("a")
		if err != nil {
			t.Fatal(err)
		}
		if nodes, err := snap.Query("a", "//item"); err != nil || len(nodes) != 4 {
			t.Fatalf("//item returned %d nodes, %v", len(nodes), err)
		}
		snap.Close()
		kept = append(kept, snap)
	}
	round()
	before := liveHeap()
	for range rounds {
		round()
	}
	grown := float64(liveHeap()-before) / rounds
	// The size classes of a Snapshot and a docVersion, and a little for
	// the runtime's own noise.
	allowed := float64(sizeClass(reflect.TypeFor[Snapshot]().Size())+sizeClass(reflect.TypeFor[docVersion]().Size())) + 16
	t.Logf("live heap grew %.1f bytes a round (a Snapshot and a descriptor: %.0f)", grown, allowed-16)
	if grown > allowed {
		t.Errorf("live heap grew %.1f bytes a round, want at most %.0f", grown, allowed)
	}
	runtime.KeepAlive(kept)
}

// sizeClass rounds a small allocation up to the allocator's size class
// (a multiple of 16 past 16 bytes, up to 128).
func sizeClass(n uintptr) uintptr {
	if n <= 8 {
		return 8
	}
	return (n + 15) &^ 15
}

// BenchmarkSnapshotReadByName: //item on a pinned version of a
// 20 000-node document. first is the version's first read, which walks
// the version and keeps the list (each iteration commits a rename and
// pins a new version off the clock); warm is every later read, handed
// the list.
func BenchmarkSnapshotReadByName(b *testing.B) {
	r, write := allocRepo(b, sectionsXML(b, 20000), leafOf)
	query := func(snap *Snapshot) {
		if nodes, err := snap.Query("a", "//item"); err != nil || len(nodes) != 4 {
			b.Fatalf("//item returned %d nodes, %v", len(nodes), err)
		}
	}
	pin := func() *Snapshot {
		snap, err := r.Snapshot("a")
		if err != nil {
			b.Fatal(err)
		}
		return snap
	}
	b.Run("first", func(b *testing.B) {
		for range b.N {
			b.StopTimer()
			write()
			snap := pin()
			b.StartTimer()
			query(snap)
			b.StopTimer()
			snap.Close()
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		snap := pin()
		defer snap.Close()
		query(snap)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			query(snap)
		}
	})
}

// TestAbsentNameWalksOncePerVersion: a version keeps its empty answer
// to a name it lacks like any other list. On a document with no item,
// a version's first //item walks every node and answers empty; every
// later //item, on the same snapshot or on another snapshot of that
// version, examines nothing and allocates nothing. Close still lets the
// list go: as in TestClosedSnapshotsKeepNoLists, 1 000 rounds of
// commit, pin, //item and Close, with every closed Snapshot kept, grow
// the live heap only by a Snapshot and its version's descriptor.
func TestAbsentNameWalksOncePerVersion(t *testing.T) {
	r, write := allocRepo(t, strings.ReplaceAll(sectionsXML(t, 2000), "<item/>", ""), leafOf)
	pin := func() *Snapshot {
		snap, err := r.Snapshot("a")
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	query := func(snap *Snapshot) {
		if nodes, err := snap.Query("a", "//item"); err != nil || len(nodes) != 0 {
			t.Fatalf("//item returned %d nodes, %v; want none", len(nodes), err)
		}
	}
	// examined reads //item as Snapshot.Query does and returns how many
	// nodes the read examined.
	examined := func(snap *Snapshot) int {
		t.Helper()
		e, err := snap.entry("a")
		if err != nil {
			t.Fatal(err)
		}
		eng := xpath.Indexed(e.read.view.Document(), &e.read.index)
		if nodes, err := eng.Query("//item"); err != nil || len(nodes) != 0 {
			t.Fatalf("//item returned %d nodes, %v; want none", len(nodes), err)
		}
		return eng.Examined()
	}
	first := pin()
	defer first.Close()
	doc, err := first.Document("a")
	if err != nil {
		t.Fatal(err)
	}
	walk := 0
	xmltree.Descendants(doc.Node(), func(*xmltree.Node) bool { walk++; return false })
	if got := examined(first); got != walk {
		t.Errorf("the version's first //item examined %d nodes, want the walk's %d", got, walk)
	}
	if got := examined(first); got != 0 {
		t.Errorf("a second //item on the same snapshot examined %d nodes, want 0", got)
	}
	second := pin()
	defer second.Close()
	if got := examined(second); got != 0 {
		t.Errorf("another snapshot's //item of the read version examined %d nodes, want 0", got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	query(second)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("another snapshot's //item of the read version: %d allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { query(first) }); allocs != 0 {
		t.Errorf("a second //item on the same snapshot: %.1f allocs, want 0", allocs)
	}

	const rounds = 1000
	kept := make([]*Snapshot, 0, rounds+1)
	round := func() {
		write()
		snap := pin()
		query(snap)
		snap.Close()
		kept = append(kept, snap)
	}
	round()
	heap := liveHeap()
	for range rounds {
		round()
	}
	grown := float64(liveHeap()-heap) / rounds
	allowed := float64(sizeClass(reflect.TypeFor[Snapshot]().Size())+sizeClass(reflect.TypeFor[docVersion]().Size())) + 16
	if grown > allowed {
		t.Errorf("live heap grew %.1f bytes a round, want at most %.0f", grown, allowed)
	}
	runtime.KeepAlive(kept)
}

// readWriter is the surface TestCaptureRacesReadersWriterAndClose
// drives on both repository flavours.
type readWriter interface {
	writer
	Snapshot(names ...string) (*Snapshot, error)
	QueryFunc(name, path string, fn func([]*xmltree.Node) error) error
	Verify(name string) error
}

// TestCaptureRacesReadersWriterAndClose: a pin that publishes a state
// hands the new version the live document's lists (xpath.Index.Capture)
// while live QueryFunc readers build and read those lists under the
// document's read lock. Around them a writer commits — appends,
// deletes, renames and a failing batch, which drops the live lists —
// pinners pin, read every name and close, and a closer closes a shared
// snapshot while its readers query it. On a durable repository a
// checkpointer checkpoints all along, and its cut's pins publish and
// capture too, under the leader's commit lock. Every live answer is the
// live walk's and every snapshot answer its version's walk's. Run with
// -race.
func TestCaptureRacesReadersWriterAndClose(t *testing.T) {
	t.Run("memory", func(t *testing.T) { captureRaces(t, New(), nil) })
	t.Run("durable", func(t *testing.T) {
		d, err := OpenDurable(t.TempDir(), DurableOptions{AutoCheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		captureRaces(t, d, d.Checkpoint)
	})
}

// captureRaces is one run of TestCaptureRacesReadersWriterAndClose on
// r, with a goroutine that calls checkpoint over and over unless it is
// nil.
func captureRaces(t *testing.T, r readWriter, checkpoint func() error) {
	const commits = 60
	if err := r.Open("a", mustParse(t, "<r><s><t/><u/></s><s/><s><t k='1'/></s></r>"), "qed"); err != nil {
		t.Fatal(err)
	}
	names := []string{"t", "u", "s", "item"}
	live := func(name string) error {
		return r.QueryFunc("a", "//"+name, func(nodes []*xmltree.Node) error {
			if len(nodes) == 0 {
				return nil
			}
			if want := xmltree.Descendants(nodes[0].Root(), named(name)); !slices.Equal(nodes, want) {
				return fmt.Errorf("live //%s: %d nodes, the walk %d", name, len(nodes), len(want))
			}
			return nil
		})
	}
	var shared sync.Mutex
	var current *Snapshot // the snapshot the closer closes, nil once closed
	done := make(chan struct{})
	pinned := make(chan struct{}, 1) // the writer waits for a pin a commit
	var wg sync.WaitGroup
	loop := func(body func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := body(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := range 2 { // live readers
		loop(func(i int) error { return live(names[(g+i)%len(names)]) })
	}
	for range 2 { // pinners
		loop(func(i int) error {
			snap, err := r.Snapshot("a")
			if err != nil {
				return err
			}
			defer snap.Close()
			select {
			case pinned <- struct{}{}:
			default:
			}
			shared.Lock()
			if current == nil && i%4 == 0 {
				if current, err = r.Snapshot("a"); err != nil {
					shared.Unlock()
					return err
				}
			}
			mine := current
			shared.Unlock()
			for _, s := range []*Snapshot{snap, mine} {
				if s == nil {
					continue
				}
				doc, err := s.Document("a")
				if errors.Is(err, ErrSnapshotClosed) {
					continue
				}
				if err != nil {
					return err
				}
				for _, name := range names {
					nodes, err := s.Query("a", "//"+name)
					if errors.Is(err, ErrSnapshotClosed) {
						break
					}
					if err != nil {
						return err
					}
					if want := xmltree.Descendants(doc.Node(), named(name)); !slices.Equal(nodes, want) {
						return fmt.Errorf("snapshot //%s: %d nodes, the version's walk %d", name, len(nodes), len(want))
					}
				}
			}
			return nil
		})
	}
	loop(func(int) error { // the closer
		shared.Lock()
		s := current
		current = nil
		shared.Unlock()
		if s != nil {
			s.Close()
		}
		return nil
	})
	if checkpoint != nil {
		loop(func(int) error { return checkpoint() })
	}
	for i := range commits {
		_, err := r.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
			root := doc.Root()
			kids := root.Children()
			switch s := kids[i%3]; i % 5 {
			case 4:
				b.AppendChild(root, "item").Delete(s).Delete(s) // the second delete fails
			case 1:
				if c := s.FirstChild(); c != nil {
					b.Rename(c, map[string]string{"t": "u", "u": "t", "item": "t"}[c.Name()])
				}
			case 2, 3:
				if last := kids[len(kids)-1]; last.Name() == "item" {
					b.Delete(last)
				}
			default:
				b.AppendChild(root, "item").AppendChild(s, "u")
			}
			return nil
		})
		if (err != nil) != (i%5 == 4) {
			t.Errorf("commit %d: %v", i, err)
		}
		<-pinned
	}
	close(done)
	wg.Wait()
	if current != nil {
		current.Close()
	}
	if err := r.Verify("a"); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotAfterCheckpointReadsAsP8: the checkpoint cut's pin
// publishes the document's version and captures the live lists into
// it, and a snapshot that follows with no commit between pins that same
// version, so P8 reads as it does with no checkpoint between: on P6's
// document, with //item read live and one more root item appended after
// the last pin, the capture and the version's first //item examine 107
// nodes (58 capture steps, the 49 entries the read is handed).
func TestSnapshotAfterCheckpointReadsAsP8(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{AutoCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	_, docs := workload.BuildCorpus(workload.FewHugeDocs(), 1)
	if err := d.Open("a", docs[0], "qed"); err != nil {
		t.Fatal(err)
	}
	appendItems := func(n int) {
		t.Helper()
		if _, err := d.Batch("a", func(doc *xmltree.Document, b *update.Batch) error {
			for range n {
				b.AppendChild(doc.Root(), "item")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	appendItems(48)
	if err := d.QueryFunc("a", "//item", func([]*xmltree.Node) error { return nil }); err != nil {
		t.Fatal(err)
	}
	first, err := d.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	appendItems(1)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	doc, _ := lookup(d.repo(), "a")
	doc.vmu.Lock()
	cut := doc.cur
	doc.vmu.Unlock()
	snap, err := d.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	e, err := snap.entry("a")
	if err != nil {
		t.Fatal(err)
	}
	if cut == nil || e.v != cut {
		t.Fatalf("the snapshot pinned %p, want the checkpoint cut's version %p", e.v, cut)
	}
	eng := xpath.Indexed(e.read.view.Document(), &e.read.index)
	got, err := eng.Query("//item")
	if err != nil || len(got) != 49 || eng.Examined() != len(got) {
		t.Fatalf("the version's first //item: %d nodes, %d examined (%v); want the 49 captured", len(got), eng.Examined(), err)
	}
	// The capture's steps, counted again on a fresh index: the live
	// document is the cut's state still.
	steps := 0
	if err := d.View("a", func(s *update.Session) error {
		steps = new(xpath.Index).Capture(s.Index(), &e.read.view)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p8 := steps + eng.Examined(); p8 != 107 {
		t.Errorf("the capture and the first //item examined %d + %d = %d nodes, want P8's 107", steps, eng.Examined(), p8)
	}
}
