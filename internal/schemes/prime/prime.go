// Package prime implements the prime number labelling scheme of Wu, Lee
// & Hsu [25], one of the two schemes the paper's conclusion queues up for
// evaluation under its framework. Each node owns a distinct prime; its
// label is the product of the primes on its root path, so the
// ancestor-descendant test is a single divisibility check and labels are
// never changed by insertions. Document order is not in the label: it is
// carried by a simultaneous congruence (SC) value, recomputed via the
// Chinese Remainder Theorem whenever order changes — the scheme's
// characteristic trade-off (persistent labels, expensive order
// maintenance).
package prime

import (
	"errors"
	"fmt"
	"math/big"

	"xmldyn/internal/labeling"
	"xmldyn/internal/xmltree"
)

// Label is a prime-product label.
type Label struct {
	// Self is the node's own prime.
	Self *big.Int
	// Value is the product of the primes on the path from the root.
	Value *big.Int
	// Lvl is the nesting depth, stored alongside the product (counting
	// prime factors would need factorisation).
	Lvl int
	// ord is the labeling's shared order state.
	ord *orderState
}

// String renders "self:product".
func (l Label) String() string { return fmt.Sprintf("%s:%s", l.Self, l.Value) }

// Bits implements labeling.Label: the product's magnitude plus the
// self-prime.
func (l Label) Bits() int { return l.Value.BitLen() + l.Self.BitLen() + 8 }

// orderState holds the simultaneous congruence value shared by all
// labels of one document.
type orderState struct {
	sc *big.Int
}

// Labeling is the prime labeling bound to one document.
type Labeling struct {
	doc       *xmltree.Document
	lab       map[*xmltree.Node]Label
	primes    []*big.Int
	nextPrime int
	ord       *orderState
	stats     labeling.Stats
	// SCRecomputes counts CRT recomputations: the cost centre the
	// scheme trades label persistence for.
	SCRecomputes int64
}

// New returns an unbound prime labeling.
func New() *Labeling {
	return &Labeling{lab: make(map[*xmltree.Node]Label), ord: &orderState{sc: big.NewInt(0)}}
}

// Name implements labeling.Interface.
func (pl *Labeling) Name() string { return "prime" }

// Stats implements labeling.Interface.
func (pl *Labeling) Stats() *labeling.Stats { return &pl.stats }

// Build implements labeling.Interface.
func (pl *Labeling) Build(doc *xmltree.Document) error {
	pl.doc = doc
	pl.lab = make(map[*xmltree.Node]Label, doc.LabelledCount())
	pl.stats.Reset()
	n := doc.LabelledCount()
	// Headroom: document-order ranks must stay below every node's
	// prime for the CRT order values to decode; skipping the primes
	// below 64n leaves room for 63n further insertions before the
	// re-priming fallback fires.
	floor := int64(64 * n)
	if floor < 256 {
		floor = 256
	}
	pl.ensurePrimes(floor)
	pl.nextPrime = lowerBoundPrime(pl.primes, floor)
	doc.WalkLabelled(func(x *xmltree.Node) bool {
		p := pl.takePrime()
		parentValue := big.NewInt(1)
		if par := xmltree.LabelledParent(x); par != nil {
			parentValue = pl.lab[par].Value
		}
		v := new(big.Int).Mul(parentValue, p)
		pl.lab[x] = Label{Self: p, Value: v, Lvl: x.Depth(), ord: pl.ord}
		pl.stats.Assigned++
		return true
	})
	return pl.recomputeSC()
}

// Label implements labeling.Interface.
func (pl *Labeling) Label(n *xmltree.Node) labeling.Label {
	l, ok := pl.lab[n]
	if !ok {
		return nil
	}
	return l
}

// Compare implements labeling.Interface: ranks are recovered from the
// shared SC value by a modulo with each label's prime.
func (pl *Labeling) Compare(a, b labeling.Label) int {
	la, lb := a.(Label), b.(Label)
	ra := new(big.Int).Mod(la.ord.sc, la.Self)
	rb := new(big.Int).Mod(lb.ord.sc, lb.Self)
	return ra.Cmp(rb)
}

// CompareNodes implements labeling.Interface: the label table holds
// whole labels, so it is a lookup of each and Compare.
func (pl *Labeling) CompareNodes(a, b *xmltree.Node) (int, bool) {
	return labeling.CompareLabels(pl, a, b)
}

// IsAncestor implements labeling.AncestorByLabel: u is an ancestor of v
// iff v's product is divisible by u's product (and they differ).
func (pl *Labeling) IsAncestor(a, d labeling.Label) bool {
	la, ld := a.(Label), d.(Label)
	if la.Value.Cmp(ld.Value) == 0 {
		return false
	}
	m := new(big.Int)
	_, m = new(big.Int).DivMod(ld.Value, la.Value, m)
	return m.Sign() == 0
}

// IsParent implements labeling.ParentByLabel.
func (pl *Labeling) IsParent(p, c labeling.Label) bool {
	lp, lc := p.(Label), c.(Label)
	return pl.IsAncestor(p, c) && lp.Lvl == lc.Lvl-1
}

// Level implements labeling.LevelByLabel.
func (pl *Labeling) Level(l labeling.Label) (int, bool) { return l.(Label).Lvl, true }

// NodeInserted implements labeling.Interface: the new node takes a fresh
// prime — no existing label changes — and the SC value is recomputed for
// the new document order. Should the document outgrow the prime
// headroom (ranks no longer below every prime), the whole document is
// re-primed: the one situation in which the scheme relabels.
func (pl *Labeling) NodeInserted(n *xmltree.Node) error {
	par := xmltree.LabelledParent(n)
	parentValue := big.NewInt(1)
	if par != nil {
		l, ok := pl.lab[par]
		if !ok {
			return fmt.Errorf("prime: parent of %q is unlabelled", n.Name())
		}
		parentValue = l.Value
	}
	p := pl.takePrime()
	pl.lab[n] = Label{Self: p, Value: new(big.Int).Mul(parentValue, p), Lvl: n.Depth(), ord: pl.ord}
	pl.stats.Assigned++
	if err := pl.recomputeSC(); err != nil {
		if errors.Is(err, errNeedReprime) {
			return pl.reprime()
		}
		return err
	}
	return nil
}

// errNeedReprime signals that ranks have outgrown the prime headroom.
var errNeedReprime = errors.New("prime: rank space outgrew prime headroom")

// reprime reassigns every prime with fresh headroom; every existing
// label changes, which the stats record as a relabel event.
func (pl *Labeling) reprime() error {
	existing := int64(len(pl.lab))
	saved := pl.stats
	saved.RelabelEvents++
	if existing > 0 {
		saved.Relabeled += existing - 1 // all but the just-inserted node
	}
	if err := pl.Build(pl.doc); err != nil {
		pl.stats = saved
		return fmt.Errorf("prime: reprime: %w", err)
	}
	pl.stats = saved
	return nil
}

// NodeDeleting implements labeling.Interface. Remaining labels and even
// the SC value stay valid (surviving ranks keep their relative order).
func (pl *Labeling) NodeDeleting(n *xmltree.Node) {
	delete(pl.lab, n)
	for _, a := range n.Attributes() {
		delete(pl.lab, a)
	}
	for _, c := range n.Children() {
		if c.Kind() == xmltree.KindElement {
			pl.NodeDeleting(c)
		}
	}
}

// recomputeSC rebuilds the simultaneous congruence value: SC ≡ rank(v)
// (mod prime(v)) for every labelled node v, via CRT.
func (pl *Labeling) recomputeSC() error {
	pl.SCRecomputes++
	modulus := big.NewInt(1)
	sc := big.NewInt(0)
	rank := int64(1)
	var err error
	pl.doc.WalkLabelled(func(x *xmltree.Node) bool {
		l, ok := pl.lab[x]
		if !ok {
			// Mid-subtree insertion: later nodes of the batch are not
			// yet labelled; the batch's final insertion recomputes the
			// SC over the complete set.
			return true
		}
		if l.Self.Cmp(big.NewInt(rank)) <= 0 {
			err = fmt.Errorf("%w: rank %d not below prime %s", errNeedReprime, rank, l.Self)
			return false
		}
		// CRT step: sc' ≡ sc (mod modulus), sc' ≡ rank (mod p).
		p := l.Self
		inv := new(big.Int).ModInverse(modulus, p)
		if inv == nil {
			err = fmt.Errorf("prime: modulus not invertible mod %s", p)
			return false
		}
		diff := new(big.Int).Sub(big.NewInt(rank), sc)
		diff.Mod(diff, p)
		t := new(big.Int).Mul(diff, inv)
		t.Mod(t, p)
		sc.Add(sc, new(big.Int).Mul(t, modulus))
		modulus.Mul(modulus, p)
		rank++
		return true
	})
	if err != nil {
		return err
	}
	pl.ord.sc = sc
	return nil
}

// takePrime hands out the next unused prime.
func (pl *Labeling) takePrime() *big.Int {
	if pl.nextPrime >= len(pl.primes) {
		pl.ensurePrimes(int64(len(pl.primes)) * 4)
	}
	p := pl.primes[pl.nextPrime]
	pl.nextPrime++
	return p
}

// ensurePrimes grows the prime table to cover values up to at least n.
func (pl *Labeling) ensurePrimes(n int64) {
	if n < 64 {
		n = 64
	}
	limit := 4 * n // primes are denser than 1 in 4·ln below small bounds
	for {
		ps := sieve(limit)
		if int64(len(ps)) > 0 && ps[len(ps)-1] > n {
			pl.primes = pl.primes[:0]
			for _, v := range ps {
				pl.primes = append(pl.primes, big.NewInt(v))
			}
			return
		}
		limit *= 2
	}
}

// sieve returns all primes up to limit.
func sieve(limit int64) []int64 {
	composite := make([]bool, limit+1)
	var out []int64
	for i := int64(2); i <= limit; i++ {
		if composite[i] {
			continue
		}
		out = append(out, i)
		for j := i * i; j <= limit; j += i {
			composite[j] = true
		}
	}
	return out
}

// lowerBoundPrime returns the index of the first prime > bound.
func lowerBoundPrime(primes []*big.Int, bound int64) int {
	b := big.NewInt(bound)
	lo, hi := 0, len(primes)
	for lo < hi {
		mid := (lo + hi) / 2
		if primes[mid].Cmp(b) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Factory returns fresh prime labelings.
func Factory() labeling.Factory {
	return func() labeling.Interface { return New() }
}
