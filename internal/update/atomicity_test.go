package update_test

import (
	"errors"
	"strings"
	"testing"

	"xmldyn/internal/core"
	"xmldyn/internal/labeling"
	"xmldyn/internal/schemes/dln"
	"xmldyn/internal/schemes/lsdx"
	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
)

// sabotaged is a labelling whose Compare and CompareNodes, once armed,
// call every pair out of order: the commit-time verification of the
// next transaction fails after every op of it has been applied.
type sabotaged struct {
	labeling.Interface
	armed bool
}

func (l *sabotaged) Compare(a, b labeling.Label) int {
	if l.armed {
		return 0
	}
	return l.Interface.Compare(a, b)
}

func (l *sabotaged) CompareNodes(a, b *xmltree.Node) (int, bool) {
	if l.armed {
		return 0, true
	}
	return l.Interface.CompareNodes(a, b)
}

const atomicityDoc = `<r><a x="1" y="2">t1<b/>t2</a><c><d k="v"><e/></d></c><f q="1"/></r>`

// atomicityRow is one mutator: as the batch that spells it, and as the
// call of the session's single-op surface.
type atomicityRow struct {
	name   string
	ops    func(el func(string) *xmltree.Node) []update.Op
	single func(s *update.Session, el func(string) *xmltree.Node) error
}

func graftee() *xmltree.Node {
	sub := xmltree.NewElement("g")
	sub.SetAttr("ga", "v")
	sub.AppendChild(xmltree.NewText("gt"))
	sub.AppendChild(xmltree.NewElement("gk"))
	return sub
}

func atomicityRows() []atomicityRow {
	type el = func(string) *xmltree.Node
	op1 := func(name string, op func(el) update.Op, single func(*update.Session, el) error) atomicityRow {
		return atomicityRow{name, func(e el) []update.Op { return []update.Op{op(e)} }, single}
	}
	attr := func(e *xmltree.Node, name string) *xmltree.Node {
		for _, a := range e.Attributes() {
			if a.Name() == name {
				return a
			}
		}
		panic("no attribute " + name)
	}
	return []atomicityRow{
		op1("insert-before", func(e el) update.Op { return update.InsertBeforeOp(e("c"), "n") },
			func(s *update.Session, e el) error { _, err := s.InsertBefore(e("c"), "n"); return err }),
		op1("insert-after", func(e el) update.Op { return update.InsertAfterOp(e("c"), "n") },
			func(s *update.Session, e el) error { _, err := s.InsertAfter(e("c"), "n"); return err }),
		op1("insert-first-child", func(e el) update.Op { return update.InsertFirstChildOp(e("a"), "n") },
			func(s *update.Session, e el) error { _, err := s.InsertFirstChild(e("a"), "n"); return err }),
		op1("append-child", func(e el) update.Op { return update.AppendChildOp(e("a"), "n") },
			func(s *update.Session, e el) error { _, err := s.AppendChild(e("a"), "n"); return err }),
		op1("insert-subtree-before", func(e el) update.Op { return update.InsertSubtreeBeforeOp(e("c"), graftee()) },
			func(s *update.Session, e el) error { return s.InsertSubtreeBefore(e("c"), graftee()) }),
		op1("insert-subtree-after", func(e el) update.Op { return update.InsertSubtreeAfterOp(e("c"), graftee()) },
			func(s *update.Session, e el) error { return s.InsertSubtreeAfter(e("c"), graftee()) }),
		op1("insert-subtree-first", func(e el) update.Op { return update.InsertSubtreeFirstOp(e("a"), graftee()) },
			func(s *update.Session, e el) error { return s.InsertSubtreeFirst(e("a"), graftee()) }),
		op1("append-subtree", func(e el) update.Op { return update.AppendSubtreeOp(e("a"), graftee()) },
			func(s *update.Session, e el) error { return s.AppendSubtree(e("a"), graftee()) }),
		op1("delete", func(e el) update.Op { return update.DeleteOp(e("c")) },
			func(s *update.Session, e el) error { return s.Delete(e("c")) }),
		op1("delete-attribute", func(e el) update.Op { return update.DeleteOp(attr(e("a"), "x")) },
			func(s *update.Session, e el) error { return s.Delete(attr(e("a"), "x")) }),
		op1("set-text", func(e el) update.Op { return update.SetTextOp(e("a"), "new") },
			func(s *update.Session, e el) error { return s.SetText(e("a"), "new") }),
		op1("rename", func(e el) update.Op { return update.RenameOp(e("a"), "z") },
			func(s *update.Session, e el) error { return s.Rename(e("a"), "z") }),
		op1("rename-attribute", func(e el) update.Op { return update.RenameOp(attr(e("a"), "x"), "z") },
			func(s *update.Session, e el) error { return s.Rename(attr(e("a"), "x"), "z") }),
		op1("set-attr-new", func(e el) update.Op { return update.SetAttrOp(e("a"), "z", "9") },
			func(s *update.Session, e el) error { _, err := s.SetAttr(e("a"), "z", "9"); return err }),
		op1("set-attr-existing", func(e el) update.Op { return update.SetAttrOp(e("a"), "x", "9") },
			func(s *update.Session, e el) error { _, err := s.SetAttr(e("a"), "x", "9"); return err }),
		{"move-before",
			func(e el) []update.Op {
				return []update.Op{update.DeleteOp(e("c")), update.InsertSubtreeBeforeOp(e("a"), e("c"))}
			},
			func(s *update.Session, e el) error { return s.MoveBefore(e("a"), e("c")) }},
		{"move-after",
			func(e el) []update.Op {
				return []update.Op{update.DeleteOp(e("a")), update.InsertSubtreeAfterOp(e("f"), e("a"))}
			},
			func(s *update.Session, e el) error { return s.MoveAfter(e("f"), e("a")) }},
		{"move-append",
			func(e el) []update.Op {
				return []update.Op{update.DeleteOp(e("c")), update.AppendSubtreeOp(e("f"), e("c"))}
			},
			func(s *update.Session, e el) error { return s.MoveAppend(e("f"), e("c")) }},
		{"delete-children",
			func(e el) []update.Op {
				var ops []update.Op
				for _, c := range e("a").Children() {
					ops = append(ops, update.DeleteOp(c))
				}
				return ops
			},
			func(s *update.Session, e el) error { return s.DeleteChildren(e("a")) }},
	}
}

// TestTransactionAtomicity: whichever way a mutator is invoked — as a
// single op, in an Apply, or staged and then aborted — and whichever
// scheme labels the document, an abort after the op has been applied
// leaves the tree (attribute order included), the labels of every node
// the abort did not have to restore, and the counters as the transaction
// found them, and the commit hook has heard nothing: it fires per
// commit, and none happened.
func TestTransactionAtomicity(t *testing.T) {
	holdBulkViews(t)
	forms := []string{"single", "apply", "staged"}
	for _, scheme := range core.Registry() {
		for _, row := range atomicityRows() {
			for _, form := range forms {
				t.Run(scheme.Name+"/"+row.name+"/"+form, func(t *testing.T) {
					doc, err := xmltree.ParseString(atomicityDoc)
					if err != nil {
						t.Fatal(err)
					}
					lab := &sabotaged{Interface: scheme.Factory()}
					s, err := update.NewSession(doc, lab)
					if err != nil {
						t.Fatal(err)
					}
					s.SetAutoVerify(true)
					fired := 0
					s.SetOnCommit(func() { fired++ })
					el := doc.FindElement

					xml, ctr, mark := doc.XML(), s.Counters(), lab.Stats().Relabelling()
					labels := labeling.Snapshot(lab, doc)
					ops := row.ops(el)

					switch form {
					case "single":
						// The session's first verification is the full
						// pass, so every adjacency meets the sabotage.
						lab.armed = true
						if err := row.single(s, el); err == nil || !strings.Contains(err.Error(), "document order violated") {
							t.Fatalf("sabotaged single op: %v", err)
						}
						lab.armed = false
					case "apply":
						// The tail passes validation and fails at apply time.
						tail := update.InsertFirstChildOp(el("f").Attributes()[0], "x")
						if _, err := s.Apply(append(ops, tail)); !errors.Is(err, xmltree.ErrWrongKind) {
							t.Fatalf("failing batch: %v", err)
						}
					case "staged":
						res, err := s.Stage(ops)
						if err != nil {
							t.Fatal(err)
						}
						for i, op := range ops {
							if created := op.Kind <= update.OpAppendChild; created != (res.New[i] != nil) || created && res.New[i].Name() != op.Name {
								t.Fatalf("staged result %d of %v: %v", i, op.Kind, res.New[i])
							}
						}
						// Staged: applied to the tree, counted and announced
						// as nothing yet.
						if got := s.Counters(); fired != 0 || doc.XML() == xml || got.Operations != ctr.Operations || got.Batches != ctr.Batches {
							t.Fatalf("staged: %d notifications, counters %+v, document %s", fired, got, doc.XML())
						}
						if err := s.Abort(); err != nil {
							t.Fatal(err)
						}
					}

					if fired != 0 {
						t.Errorf("abort notified %d times, want 0", fired)
					}
					if got := doc.XML(); got != xml {
						t.Errorf("document after abort:\n got %s\nwant %s", got, xml)
					}
					got := s.Counters()
					got.Verifies, got.FullVerifies = ctr.Verifies, ctr.FullVerifies
					if got != ctr {
						t.Errorf("counters after abort = %+v, want %+v", got, ctr)
					}
					if err := s.Verify(); err != nil {
						t.Errorf("order after abort: %v", err)
					}
					// A label may differ from the pre-state only where the
					// abort re-labelled a subtree it restored, or where the
					// scheme reports that it changed existing labels.
					restored := func(n *xmltree.Node) bool {
						for _, op := range ops {
							if op.Kind == update.OpDelete && (op.Ref == n || op.Ref.IsAncestorOf(n)) {
								return true
							}
						}
						return false
					}
					after := labeling.Snapshot(lab, doc)
					if len(after) != len(labels) {
						t.Errorf("%d labelled nodes after abort, %d before", len(after), len(labels))
					}
					for n, was := range labels {
						now, ok := after[n]
						if !ok {
							t.Errorf("<%s> lost its label", n.Name())
						} else if now != was && !restored(n) && lab.Stats().Relabelling() == mark {
							t.Errorf("label of <%s> changed %s -> %s", n.Name(), was, now)
						}
					}
					// The session stays fully usable.
					if _, err := s.AppendChild(doc.Root(), "again"); err != nil {
						t.Fatal(err)
					}
					if err := s.Verify(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestFailedMoveLosesNothing: a move whose graft cannot land — onto a
// text node, an attribute, a node outside the document — used to leave
// the subtree deleted.
func TestFailedMoveLosesNothing(t *testing.T) {
	moves := map[string]func(s *update.Session, dest, n *xmltree.Node) error{
		"MoveAppend": (*update.Session).MoveAppend,
		"MoveBefore": (*update.Session).MoveBefore,
		"MoveAfter":  (*update.Session).MoveAfter,
	}
	dests := map[string]func(doc *xmltree.Document) *xmltree.Node{
		"text":      func(doc *xmltree.Document) *xmltree.Node { return doc.FindElement("b").FirstChild() },
		"attribute": func(doc *xmltree.Document) *xmltree.Node { return doc.FindElement("c").Attributes()[0] },
		"detached": func(doc *xmltree.Document) *xmltree.Node {
			loose := xmltree.NewElement("loose")
			loose.AppendChild(xmltree.NewElement("inner"))
			return loose.FirstChild()
		},
	}
	for mname, move := range moves {
		for dname, dest := range dests {
			t.Run(mname+"/"+dname, func(t *testing.T) {
				doc, err := xmltree.ParseString(`<a><b>txt</b><c k="v"><d/></c></a>`)
				if err != nil {
					t.Fatal(err)
				}
				s, err := update.NewSession(doc, core.Registry()[0].Factory())
				if err != nil {
					t.Fatal(err)
				}
				xml, ctr, labels := doc.XML(), s.Counters(), renderedLabels(s)
				if err := move(s, dest(doc), doc.FindElement("d")); err == nil {
					// MoveBefore/MoveAfter beside a text node is a legal move.
					if dname == "text" && mname != "MoveAppend" {
						return
					}
					t.Fatal("the move succeeded")
				}
				if got := doc.XML(); got != xml {
					t.Errorf("document after the failed move: %s, want %s", got, xml)
				}
				if got := s.Counters(); got != ctr {
					t.Errorf("counters after the failed move: %+v, want %+v", got, ctr)
				}
				if got := renderedLabels(s); strings.Join(got, " ") != strings.Join(labels, " ") {
					t.Errorf("labels after the failed move: %v, want %v", got, labels)
				}
				if err := s.Verify(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestRefusedInsertLeavesNothing: a single insert the labelling refuses
// used to stay attached, unlabelled, and Verify failed from then on.
// (Narrow DLN components are the refusal this tree can produce: the
// other bounded algebras, lsdx included, answer an overflow by
// reassigning the sibling list, and their Assign has no bound.)
func TestRefusedInsertLeavesNothing(t *testing.T) {
	for name, lab := range map[string]labeling.Interface{
		"dln-2-bit": dln.NewWithWidth(2),
		"dln-4-bit": dln.NewWithWidth(4),
	} {
		t.Run(name, func(t *testing.T) {
			doc, err := xmltree.ParseString("<r><a/><b/></r>")
			if err != nil {
				t.Fatal(err)
			}
			s, err := update.NewSession(doc, lab)
			if err != nil {
				t.Fatal(err)
			}
			// Appending lengthens the last sibling's code until neither it
			// nor a reassignment of the whole sibling list fits the budget.
			for i := 0; ; i++ {
				if i == 100 {
					t.Fatal("the labelling never refused an insert")
				}
				xml, ctr := doc.XML(), s.Counters()
				if _, err = s.AppendChild(doc.Root(), "n"); err == nil {
					continue
				}
				if got := doc.XML(); got != xml {
					t.Errorf("document after the refused insert: %s, want %s", got, xml)
				}
				if got := s.Counters(); got != ctr {
					t.Errorf("counters after the refused insert: %+v, want %+v", got, ctr)
				}
				break
			}
			doc.WalkLabelled(func(n *xmltree.Node) bool {
				if s.Labeling().Label(n) == nil {
					t.Errorf("attached unlabelled <%s>", n.Name())
				}
				return true
			})
			if err := s.Verify(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSingleOpVerifyFailureRollsBack: a single op whose commit-time
// check fails (an lsdx label collision) is reverted exactly as the same
// op in a one-op Apply is.
func TestSingleOpVerifyFailureRollsBack(t *testing.T) {
	open := func() (*update.Session, *xmltree.Document) {
		doc, err := xmltree.ParseString("<r><a/><b/></r>")
		if err != nil {
			t.Fatal(err)
		}
		s, err := update.NewSession(doc, lsdx.New())
		if err != nil {
			t.Fatal(err)
		}
		s.SetAutoVerify(true)
		return s, doc
	}
	single, sdoc := open()
	batch, bdoc := open()
	// Alternating before/after the newest node walks lsdx into its
	// documented collision.
	sref, bref := sdoc.FindElement("b"), bdoc.FindElement("b")
	for i := 0; ; i++ {
		if i == 2000 {
			t.Fatal("lsdx never collided")
		}
		op := update.InsertBeforeOp
		if i%2 == 1 {
			op = update.InsertAfterOp
		}
		before := sdoc.XML()
		sn, serr := single.Do(op(sref, "n"))
		res, berr := batch.Apply([]update.Op{op(bref, "n")})
		if (serr == nil) != (berr == nil) {
			t.Fatalf("insert %d: single %v, batch %v", i, serr, berr)
		}
		if serr == nil {
			sref, bref = sn, res.New[0]
			continue
		}
		if serr.Error() != berr.Error() {
			t.Errorf("single %v, batch %v", serr, berr)
		}
		if got := sdoc.XML(); got != before || bdoc.XML() != before {
			t.Errorf("after the collision: single %s, batch %s, want %s", got, bdoc.XML(), before)
		}
		sc, bc := single.Counters(), batch.Counters()
		if sc.Inserts != bc.Inserts || sc.Operations != bc.Operations || sc.Verifies != bc.Verifies {
			t.Errorf("counters: single %+v, batch %+v", sc, bc)
		}
		if strings.Join(renderedLabels(single), " ") != strings.Join(renderedLabels(batch), " ") {
			t.Error("labels differ between the single-op and the batch session")
		}
		if err := single.Verify(); err != nil {
			t.Error(err)
		}
		return
	}
}

// TestNamesAreChecked: three documents no parser reads back —
// <a x="1" x="2">, </> and <has space/> — used to be one call away.
func TestNamesAreChecked(t *testing.T) {
	doc, err := xmltree.ParseString(`<a x="1" y="2"><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := update.NewSession(doc, core.Registry()[0].Factory())
	if err != nil {
		t.Fatal(err)
	}
	a, b := doc.Root(), doc.FindElement("b")
	y := a.Attributes()[1]
	xml := doc.XML()
	for _, c := range []struct {
		what string
		op   update.Op
		want error
	}{
		{"attribute renamed onto a sibling", update.RenameOp(y, "x"), update.ErrDupAttr},
		{"element renamed to nothing", update.RenameOp(b, ""), update.ErrBadName},
		{"name with a space", update.AppendChildOp(a, "has space"), update.ErrBadName},
		{"insert-before with markup", update.InsertBeforeOp(b, "a<b"), update.ErrBadName},
		{"attribute name with =", update.SetAttrOp(a, "k=v", "1"), update.ErrBadName},
		{"attribute renamed to a quote", update.RenameOp(y, `"`), update.ErrBadName},
	} {
		for _, form := range []string{"single", "batch"} {
			var err error
			if form == "single" {
				_, err = s.Do(c.op)
			} else {
				// After an op that applies: the whole batch must go.
				_, err = s.Apply([]update.Op{update.SetAttrOp(b, "k", "v"), c.op})
			}
			if !errors.Is(err, c.want) {
				t.Errorf("%s (%s): %v, want %v", c.what, form, err, c.want)
			}
			if got := doc.XML(); got != xml {
				t.Fatalf("%s (%s) left %s", c.what, form, got)
			}
		}
	}
	// The duplicate is judged against the tree the op meets, not the one
	// the batch started from.
	if _, err := s.Apply([]update.Op{update.SetAttrOp(a, "z", "3"), update.RenameOp(y, "z")}); !errors.Is(err, update.ErrDupAttr) {
		t.Errorf("rename onto an attribute the batch has just set: %v", err)
	}
	if _, err := s.Apply([]update.Op{update.DeleteOp(a.Attributes()[0]), update.RenameOp(y, "x")}); err != nil {
		t.Errorf("rename onto the name of an attribute the batch has just deleted: %v", err)
	}
	if got, want := doc.XML(), `<a x="2"><b/></a>`; got != want {
		t.Errorf("document %s, want %s", got, want)
	}
	if _, err := xmltree.ParseString(doc.XML()); err != nil {
		t.Error(err)
	}
}
