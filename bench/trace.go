package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"xmldyn/internal/labeling"
	"xmldyn/internal/xmltree"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that caused this one, 0 for a request's
// root. IDs start at 1 and are the span's position in the file.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans from the benchmark's own files, around its
// calls into each layer (spans inside the program are ROADMAP item 5).
// It keeps them in memory until the workload ends. begin and end must
// nest and must come from one goroutine: the traced run drives the
// system from a single client. A nil tracer records nothing, so the
// same code serves traced and untraced passes.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // open span IDs, innermost last
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens a new request and its root span.
func (t *tracer) root(name string) int {
	if t == nil {
		return 0
	}
	t.req++
	return t.begin("bench", name)
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Layer: layer, Name: name})
	t.stack = append(t.stack, id)
	t.spans[id-1].Start = int64(time.Since(t.t0))
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order (open: %v)", id, t.stack))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].End = now
}

// in times fn as one span.
func (t *tracer) in(layer, name string, fn func() error) error {
	id := t.begin(layer, name)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns every span's duration minus the part its children
// cover, and an error for a malformed tree: a child outside its
// parent, a parent that is not an earlier span of the same request, or
// a negative self time.
func selfTimes(spans []span) ([]time.Duration, error) {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.ID != i+1 || s.End < s.Start {
			return nil, fmt.Errorf("span %d: bad id or interval [%d,%d]", s.ID, s.Start, s.End)
		}
		self[i] += s.dur()
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			return nil, fmt.Errorf("span %d: parent %d is not an earlier span", s.ID, s.Parent)
		}
		p := spans[s.Parent-1]
		if p.Req != s.Req || s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		// Siblings cannot overlap (one goroutine, stack discipline), so
		// child cover is the plain sum.
		self[s.Parent-1] -= s.dur()
	}
	for i, d := range self {
		if d < 0 {
			return nil, fmt.Errorf("span %d (%s): negative self time %v", i+1, spans[i].Name, d)
		}
	}
	return self, nil
}

// spanStats groups a trace by span name and by layer.
type spanStats struct {
	self      []time.Duration          // per span, as selfTimes returns them
	byName    map[string]samples       // durations per "layer/name"
	layerSelf map[string]time.Duration // summed self time per layer
}

func analyse(spans []span) (*spanStats, error) {
	self, err := selfTimes(spans)
	if err != nil {
		return nil, err
	}
	st := &spanStats{self: self, byName: map[string]samples{}, layerSelf: map[string]time.Duration{}}
	for i, s := range spans {
		key := s.Layer + "/" + s.Name
		st.byName[key] = append(st.byName[key], s.dur())
		st.layerSelf[s.Layer] += self[i]
	}
	return st, nil
}

// writeTrace writes the spans as JSON lines.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedLabeling wraps a scheme so that the update layer's calls into
// it become spans of layer "schemes": the only way to see a scheme's
// share of Session.Apply from outside. Compare is passed through
// untimed (one clock read per label comparison would cost more than
// the comparison).
type tracedLabeling struct {
	labeling.Interface
	tr     *tracer
	scheme string
}

func (l *tracedLabeling) NodeInserted(n *xmltree.Node) error {
	id := l.tr.begin("schemes", l.scheme+".NodeInserted")
	err := l.Interface.NodeInserted(n)
	l.tr.end(id)
	return err
}

func (l *tracedLabeling) NodeDeleting(n *xmltree.Node) {
	id := l.tr.begin("schemes", l.scheme+".NodeDeleting")
	l.Interface.NodeDeleting(n)
	l.tr.end(id)
}
