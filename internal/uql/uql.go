// Package uql implements a small textual update language modelled on
// the W3C XQuery Update Facility's updating expressions — the standard
// whose "real-world requirement to support efficient updates to XML
// documents" motivates the paper (§1). A statement compiles to a list
// of internal/update's structural and content ops, committed by one
// Session.Apply: one transaction, all of it or none (FLUX's reading of
// an update as a list of primitive updates applied as a whole), and one
// batch in the session's counters. Any labelling scheme maintains
// document order underneath them. A move is a delete and a graft of the
// same subtree, which therefore gets fresh labels at its destination.
//
// Grammar (statements separated by ';'):
//
//	insert node <xml/> (before | after) PATH
//	insert node <xml/> as (first | last) into PATH
//	insert node <xml/> into PATH                  -- as last
//	insert attribute NAME="VALUE" into PATH
//	delete node PATH
//	replace value of node PATH with "text"
//	rename node PATH as NAME
//	move node PATH (before | after | into) PATH
//
// PATH is a location path (see internal/xpath); it must select exactly
// one node unless the statement is "delete node", which applies to all
// matches (XQUF semantics): a match inside another goes with it.
package uql

import (
	"errors"
	"fmt"
	"strings"

	"xmldyn/internal/update"
	"xmldyn/internal/xmltree"
	"xmldyn/internal/xpath"
)

// Errors reported by the parser and executor.
var (
	ErrSyntax    = errors.New("uql: syntax error")
	ErrNoMatch   = errors.New("uql: path selected no nodes")
	ErrAmbiguous = errors.New("uql: path selected more than one node")
)

// Op is a parsed statement.
type Op struct {
	Kind     OpKind
	Fragment *xmltree.Node // detached subtree for inserts
	Target   string        // primary path
	Dest     string        // destination path (move)
	Position Position
	Name     string // rename target
	Value    string // replace value
}

// OpKind enumerates statement kinds.
type OpKind int

// Statement kinds.
const (
	OpInsert OpKind = iota
	OpInsertAttribute
	OpDelete
	OpReplaceValue
	OpRename
	OpMove
)

// Position locates an insert/move relative to the path's node.
type Position int

// Positions.
const (
	Before Position = iota
	After
	FirstInto
	LastInto
)

// Result summarises an Apply run.
type Result struct {
	Statements int
	Inserted   int
	Deleted    int
	Replaced   int
	Renamed    int
	Moved      int
}

// Parse compiles a script into operations.
func Parse(script string) ([]Op, error) {
	var ops []Op
	for _, stmt := range strings.Split(script, ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		op, err := parseStatement(stmt)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("%w: empty script", ErrSyntax)
	}
	return ops, nil
}

func parseStatement(stmt string) (Op, error) {
	switch {
	case strings.HasPrefix(stmt, "insert node "):
		return parseInsert(strings.TrimPrefix(stmt, "insert node "))
	case strings.HasPrefix(stmt, "insert attribute "):
		return parseInsertAttribute(strings.TrimPrefix(stmt, "insert attribute "))
	case strings.HasPrefix(stmt, "delete node "):
		// stmt is trimmed, so a path follows the prefix.
		return Op{Kind: OpDelete, Target: strings.TrimSpace(strings.TrimPrefix(stmt, "delete node "))}, nil
	case strings.HasPrefix(stmt, "replace value of node "):
		rest := strings.TrimPrefix(stmt, "replace value of node ")
		i := strings.Index(rest, " with ")
		if i < 0 {
			return Op{}, fmt.Errorf("%w: replace needs 'with'", ErrSyntax)
		}
		path := strings.TrimSpace(rest[:i])
		val := strings.TrimSpace(rest[i+len(" with "):])
		val = strings.Trim(val, `"'`)
		if path == "" {
			return Op{}, fmt.Errorf("%w: replace needs a path", ErrSyntax)
		}
		return Op{Kind: OpReplaceValue, Target: path, Value: val}, nil
	case strings.HasPrefix(stmt, "rename node "):
		rest := strings.TrimPrefix(stmt, "rename node ")
		i := strings.LastIndex(rest, " as ")
		if i < 0 {
			return Op{}, fmt.Errorf("%w: rename needs 'as'", ErrSyntax)
		}
		path := strings.TrimSpace(rest[:i])
		name := strings.TrimSpace(rest[i+len(" as "):])
		if path == "" || name == "" || strings.ContainsAny(name, " <>/") {
			return Op{}, fmt.Errorf("%w: rename node PATH as NAME", ErrSyntax)
		}
		return Op{Kind: OpRename, Target: path, Name: name}, nil
	case strings.HasPrefix(stmt, "move node "):
		rest := strings.TrimPrefix(stmt, "move node ")
		fields := strings.Fields(rest)
		if len(fields) != 3 {
			return Op{}, fmt.Errorf("%w: move node PATH (before|after|into) PATH", ErrSyntax)
		}
		pos, err := parsePosition(fields[1])
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: OpMove, Target: fields[0], Position: pos, Dest: fields[2]}, nil
	default:
		return Op{}, fmt.Errorf("%w: unrecognised statement %q", ErrSyntax, stmt)
	}
}

func parsePosition(kw string) (Position, error) {
	switch kw {
	case "before":
		return Before, nil
	case "after":
		return After, nil
	case "into":
		return LastInto, nil
	default:
		return 0, fmt.Errorf("%w: position %q", ErrSyntax, kw)
	}
}

// parseInsert handles "…<xml/> [as first|as last] (before|after|into) PATH".
// The path is the final token and the position keywords immediately
// precede it, so the XML fragment is everything before them — fragments
// may contain any text, including the keywords.
func parseInsert(rest string) (Op, error) {
	fields := strings.Fields(rest)
	if len(fields) < 3 {
		return Op{}, fmt.Errorf("%w: insert node FRAGMENT POSITION PATH", ErrSyntax)
	}
	path := fields[len(fields)-1]
	var pos Position
	var fragEnd int
	kw := fields[len(fields)-2]
	switch kw {
	case "before":
		pos, fragEnd = Before, len(fields)-2
	case "after":
		pos, fragEnd = After, len(fields)-2
	case "into":
		// plain "into", or "as first into" / "as last into"
		pos, fragEnd = LastInto, len(fields)-2
		if len(fields) >= 4 && fields[len(fields)-4] == "as" {
			switch fields[len(fields)-3] {
			case "first":
				pos, fragEnd = FirstInto, len(fields)-4
			case "last":
				pos, fragEnd = LastInto, len(fields)-4
			default:
				return Op{}, fmt.Errorf("%w: 'as %s into'", ErrSyntax, fields[len(fields)-3])
			}
		}
	default:
		return Op{}, fmt.Errorf("%w: missing position keyword before path", ErrSyntax)
	}
	fragText := strings.TrimSpace(strings.Join(fields[:fragEnd], " "))
	if fragText == "" {
		return Op{}, fmt.Errorf("%w: missing XML fragment", ErrSyntax)
	}
	fragDoc, err := xmltree.ParseString(fragText)
	if err != nil {
		return Op{}, fmt.Errorf("%w: fragment: %v", ErrSyntax, err)
	}
	frag := fragDoc.Root()
	frag.Detach()
	return Op{Kind: OpInsert, Fragment: frag, Target: path, Position: pos}, nil
}

// parseInsertAttribute handles `insert attribute name="value" into PATH`.
func parseInsertAttribute(rest string) (Op, error) {
	fields := strings.Fields(rest)
	if len(fields) < 3 || fields[len(fields)-2] != "into" {
		return Op{}, fmt.Errorf("%w: insert attribute NAME=\"VALUE\" into PATH", ErrSyntax)
	}
	path := fields[len(fields)-1]
	spec := strings.Join(fields[:len(fields)-2], " ")
	eq := strings.Index(spec, "=")
	if eq <= 0 {
		return Op{}, fmt.Errorf("%w: attribute spec %q needs NAME=\"VALUE\"", ErrSyntax, spec)
	}
	name := strings.TrimSpace(spec[:eq])
	value := strings.Trim(strings.TrimSpace(spec[eq+1:]), `"'`)
	if name == "" || strings.ContainsAny(name, " <>/") {
		return Op{}, fmt.Errorf("%w: bad attribute name %q", ErrSyntax, name)
	}
	return Op{Kind: OpInsertAttribute, Target: path, Name: name, Value: value}, nil
}

// Apply parses and executes a script against a session.
func Apply(s *update.Session, script string) (Result, error) {
	ops, err := Parse(script)
	if err != nil {
		return Result{}, err
	}
	return Run(s, ops)
}

// Run executes parsed operations in order. Each statement resolves its
// paths against the document as the statements before it left it and
// commits as one op list, one Session.Apply: a transaction, all of it or
// none, counted as one batch. A failing statement changes nothing; the
// statements before it stay. Paths read through the session's element
// index (Session.Engine), whose lists a commit edits in place, so a
// statement's op list is built in full before its Apply, and no match is
// read after it.
func Run(s *update.Session, ops []Op) (Result, error) {
	var res Result
	eng := s.Engine()
	for i, op := range ops {
		list, err := statementOps(eng, op)
		if err == nil {
			_, err = s.Apply(list)
		}
		if err != nil {
			return res, fmt.Errorf("uql: statement %d: %w", i+1, err)
		}
		switch op.Kind {
		case OpInsert, OpInsertAttribute:
			res.Inserted++
		case OpDelete:
			res.Deleted += len(list)
		case OpReplaceValue:
			res.Replaced++
		case OpRename:
			res.Renamed++
		case OpMove:
			res.Moved++
		}
		res.Statements++
	}
	return res, nil
}

// statementOps spells one statement as the update ops that commit it.
func statementOps(eng *xpath.Engine, op Op) ([]update.Op, error) {
	if op.Kind == OpDelete {
		return deleteOps(eng, op.Target)
	}
	n, err := selectOne(eng, op.Target)
	if err != nil {
		return nil, err
	}
	switch op.Kind {
	case OpInsert:
		// Each statement inserts a fresh copy so scripts are
		// re-runnable and fragments shareable.
		return []update.Op{graftOp(op.Position, n, op.Fragment.Clone())}, nil
	case OpInsertAttribute:
		return []update.Op{update.SetAttrOp(n, op.Name, op.Value)}, nil
	case OpReplaceValue:
		if n.Kind() == xmltree.KindAttribute {
			return []update.Op{update.SetAttrOp(n.Parent(), n.Name(), op.Value)}, nil
		}
		return []update.Op{update.SetTextOp(n, op.Value)}, nil
	case OpRename:
		return []update.Op{update.RenameOp(n, op.Name)}, nil
	case OpMove:
		dest, err := selectOne(eng, op.Dest)
		if err != nil {
			return nil, err
		}
		return []update.Op{update.DeleteOp(n), graftOp(op.Position, dest, n)}, nil
	default:
		return nil, fmt.Errorf("%w: unknown op kind %d", ErrSyntax, op.Kind)
	}
}

// graftOp places the subtree rooted at root at pos relative to ref.
func graftOp(pos Position, ref, root *xmltree.Node) update.Op {
	switch pos {
	case Before:
		return update.InsertSubtreeBeforeOp(ref, root)
	case After:
		return update.InsertSubtreeAfterOp(ref, root)
	case FirstInto:
		return update.InsertSubtreeFirstOp(ref, root)
	default:
		return update.AppendSubtreeOp(ref, root)
	}
}

// deleteOps deletes every match of path but one inside an earlier match,
// which goes with that match's subtree. Matches come in document order,
// so such a match lies inside the last one kept.
func deleteOps(eng *xpath.Engine, path string) ([]update.Op, error) {
	nodes, err := eng.Query(path)
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoMatch, path)
	}
	ops := make([]update.Op, 0, len(nodes))
	var last *xmltree.Node
	for _, n := range nodes {
		if last == nil || !last.IsAncestorOf(n) {
			ops = append(ops, update.DeleteOp(n))
			last = n
		}
	}
	return ops, nil
}

// selectOne resolves a path that must select exactly one node.
func selectOne(eng *xpath.Engine, path string) (*xmltree.Node, error) {
	nodes, err := eng.Query(path)
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoMatch, path)
	}
	if len(nodes) > 1 {
		return nil, fmt.Errorf("%w: %s (%d matches)", ErrAmbiguous, path, len(nodes))
	}
	return nodes[0], nil
}
