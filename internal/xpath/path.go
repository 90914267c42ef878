package xpath

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"xmldyn/internal/xmltree"
)

// Query evaluates a location path against the document and returns the
// matching nodes in document order. The supported grammar is the core
// fragment the paper's motivating workloads need:
//
//	path      := ("/" | "//") step (("/" | "//") step)*
//	step      := nametest predicate* | "@" name
//	nametest  := name | "*"
//	predicate := "[" integer "]"            positional, per parent
//	           | "[@" name "]"              attribute presence
//	           | "[@" name "='" value "']"  attribute equality
//	           | "[" name "]"               child-element presence
//
// Predicates filter each context node's candidates before the contexts
// are merged, as in XPath: /r/s/p[1] is the first p of every s, and
// //p[2] every p that is the second p of its parent.
//
// Examples: /book/publisher//name, //edition[@year='2004'], /book/*[2].
func (e *Engine) Query(path string) ([]*xmltree.Node, error) {
	var buf [4]step
	steps, err := parsePath(buf[:0], path)
	if err != nil {
		return nil, err
	}
	if e.doc.Root() == nil {
		return nil, fmt.Errorf("xpath: empty document")
	}
	// The initial context is the document: the first step selects the
	// root element (child axis) or any element (descendant axis).
	// Invariant: current is duplicate-free and in document order, and
	// while flat holds no context is an ancestor of another. One
	// context's selection is the next list as it is; several are
	// appended into a fresh one, which alone is sorted, since a
	// selection read by name is the index's.
	current := e.stepFrom(e.doc.Node(), steps[0])
	flat := !steps[0].deep
	for _, st := range steps[1:] {
		var next []*xmltree.Node
		for _, ctx := range current {
			if len(current) == 1 {
				next = e.stepFrom(ctx, st)
			} else {
				next = append(next, e.stepFrom(ctx, st)...)
			}
		}
		// One context's candidates are distinct and ordered, and so are
		// the children of flat ordered contexts (disjoint subtrees, one
		// after the other). Nested contexts interleave, and a deep step
		// reaches a node from each of its selected ancestors: the tree
		// orders the merge, and the duplicates it leaves adjacent go.
		if len(current) > 1 && (st.deep || !flat) {
			slices.SortFunc(next, xmltree.DocOrderCompare)
			next = slices.Compact(next)
		}
		if st.deep {
			flat = false
		}
		current = next
	}
	return current, nil
}

type step struct {
	deep      bool // came via //
	attribute bool
	name      string
	preds     []predicate
}

type predicate struct {
	position int    // 1-based; 0 when unset
	attr     string // attribute presence/equality
	value    string // attribute value; "" with attrEq=false means presence
	attrEq   bool
	child    string // child element presence
}

// parsePath appends the steps of path to steps.
func parsePath(steps []step, path string) ([]step, error) {
	if path == "" {
		return nil, fmt.Errorf("xpath: empty path")
	}
	if path[0] != '/' {
		return nil, fmt.Errorf("xpath: path must start with / or //")
	}
	i := 0
	for i < len(path) {
		deep := false
		if !strings.HasPrefix(path[i:], "/") {
			return nil, fmt.Errorf("xpath: expected / at %d in %q", i, path)
		}
		i++
		if i < len(path) && path[i] == '/' {
			deep = true
			i++
		}
		j := i
		for j < len(path) && path[j] != '/' && path[j] != '[' {
			j++
		}
		raw := path[i:j]
		if raw == "" {
			return nil, fmt.Errorf("xpath: empty step at %d in %q", i, path)
		}
		st := step{deep: deep}
		if raw[0] == '@' {
			st.attribute = true
			st.name = raw[1:]
		} else {
			st.name = raw
		}
		i = j
		for i < len(path) && path[i] == '[' {
			end := strings.IndexByte(path[i:], ']')
			if end < 0 {
				return nil, fmt.Errorf("xpath: unterminated predicate in %q", path)
			}
			p, err := parsePredicate(path[i+1 : i+end])
			if err != nil {
				return nil, err
			}
			st.preds = append(st.preds, p)
			i += end + 1
		}
		steps = append(steps, st)
	}
	return steps, nil
}

func parsePredicate(s string) (predicate, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return predicate{}, fmt.Errorf("xpath: empty predicate")
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n < 1 {
			return predicate{}, fmt.Errorf("xpath: position %d out of range", n)
		}
		return predicate{position: n}, nil
	}
	if s[0] == '@' {
		rest := s[1:]
		if eq := strings.Index(rest, "="); eq >= 0 {
			name := rest[:eq]
			val := strings.Trim(rest[eq+1:], `'"`)
			return predicate{attr: name, value: val, attrEq: true}, nil
		}
		return predicate{attr: rest}, nil
	}
	return predicate{child: s}, nil
}

// stepFrom returns one step's selection from one context node: its
// candidates, distinct and in document order, filtered by its
// predicates. A deep step reads its name's list from the engine's
// index, if it has one (index.go), or scans with xmltree.Descendants,
// which on a version view visits persistent nodes and materialises
// only the matches.
func (e *Engine) stepFrom(ctx *xmltree.Node, st step) []*xmltree.Node {
	kind := xmltree.KindElement
	if st.attribute {
		kind = xmltree.KindAttribute
	}
	match := func(n *xmltree.Node) bool {
		e.examined++
		return n.Kind() == kind && (st.name == "*" || n.Name() == st.name)
	}
	if st.deep {
		if nodes, ok := e.byName(ctx, st); ok {
			return applyPredicates(nodes, st)
		}
		return applyPredicates(xmltree.Descendants(ctx, match), st)
	}
	list := ctx.Children()
	if st.attribute {
		list = ctx.Attributes()
	}
	var out []*xmltree.Node
	for _, c := range list {
		if match(c) {
			out = append(out, c)
		}
	}
	return applyPredicates(out, st)
}

// applyPredicates filters one context's candidates through the step's
// predicates, in order. A position counts among the candidates that
// share a parent: all of them on a child step, a group on a deep one.
func applyPredicates(nodes []*xmltree.Node, st step) []*xmltree.Node {
	for _, p := range st.preds {
		var kept []*xmltree.Node
		switch {
		case p.position > 0 && !st.deep:
			if p.position <= len(nodes) {
				kept = nodes[p.position-1 : p.position : p.position]
			}
		case p.position > 0:
			rank := make(map[*xmltree.Node]int)
			for _, n := range nodes {
				if rank[n.Parent()]++; rank[n.Parent()] == p.position {
					kept = append(kept, n)
				}
			}
		case p.attrEq:
			for _, n := range nodes {
				if v, ok := n.Attr(p.attr); ok && v == p.value {
					kept = append(kept, n)
				}
			}
		case p.attr != "":
			for _, n := range nodes {
				if _, ok := n.Attr(p.attr); ok {
					kept = append(kept, n)
				}
			}
		case p.child != "":
			for _, n := range nodes {
				for _, c := range n.Source().Children() {
					if c.Kind() == xmltree.KindElement && c.Name() == p.child {
						kept = append(kept, n)
						break
					}
				}
			}
		}
		nodes = kept
	}
	return nodes
}
