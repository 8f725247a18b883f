// Package trace records a timeline of one query execution as spans: a
// node's dial, scan and merge phases, its adaptive switches, overflow
// passes and protocol milestones. One type serves both clocks: the
// simulator stamps spans with virtual time, so a same-seed trace is
// byte-identical, and the live and distributed engines stamp them with a
// wall clock. A trace is how you see WHY an adaptive algorithm behaved
// as it did — which node switched, when, and what it had seen by then.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Span is one timed region of real (or simulated) execution: a phase
// of a node's life such as dial, scan or merge. Start and End are
// nanoseconds on whatever clock the Tracer was built with — virtual
// time in the simulator, a monotonic wall clock in the live and
// distributed engines.
type Span struct {
	Node   int
	Name   string
	Start  int64
	End    int64
	Detail string
}

// Duration returns End-Start.
func (s Span) Duration() int64 { return s.End - s.Start }

// Tracer records spans, from concurrent goroutines when the engine has
// them: many nodes or workers trace into one timeline at once. A nil
// *Tracer is a valid disabled tracer: Begin returns a nil span whose End
// no-ops.
type Tracer struct {
	clock func() int64

	mu sync.Mutex
	//aggvet:guard mu
	spans []Span
}

// NewTracer returns a tracer stamping spans with clock. The simulator
// passes a virtual-time clock (deterministic); real engines pass e.g.
// func() int64 { return time.Since(start).Nanoseconds() }.
func NewTracer(clock func() int64) *Tracer {
	return &Tracer{clock: clock}
}

// ActiveSpan is a started, not yet finished span.
type ActiveSpan struct {
	t     *Tracer
	node  int
	name  string
	start int64
}

// Begin starts a span on node. Safe on a nil tracer (returns nil).
func (t *Tracer) Begin(node int, name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, node: node, name: name, start: t.clock()}
}

// End finishes the span with an optional detail string, recording it
// in the tracer. Safe on a nil span.
func (s *ActiveSpan) End(detail string) {
	if s == nil {
		return
	}
	sp := Span{Node: s.node, Name: s.name, Start: s.start, End: s.t.clock(), Detail: detail}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans, sorted by (Start, Node,
// Name) so concurrent recording order does not leak into the output.
// Spans that tie on all three keep their recording order, which the
// simulator makes deterministic.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Len returns the number of finished spans (0 for a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Render writes the spans as aligned text, one per line, in the
// deterministic Spans order.
func (t *Tracer) Render(w io.Writer) error {
	spans := t.Spans()
	if len(spans) == 0 {
		_, err := fmt.Fprintln(w, "(no spans)")
		return err
	}
	for _, s := range spans {
		if _, err := fmt.Fprintf(w, "%10.4fs +%-10.4fs  node %-3d  %-12s  %s\n",
			float64(s.Start)/1e9, float64(s.Duration())/1e9, s.Node, s.Name, s.Detail); err != nil {
			return err
		}
	}
	return nil
}
