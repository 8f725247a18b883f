package main

import (
	"encoding/json"
	"os"
	"sort"

	"parallelagg/internal/trace"
)

// span is one timed region recorded by the runner: around a public call
// into a layer, around a kernel cell, or adopted from the spans an engine
// published through Config.Tracer. Spans of one query share Query; Parent
// is the ID of the span that caused this one (0 for a root). Node is the
// engine's worker/node index, -1 for the runner's own spans.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
	Name    string `json:"name"`
	Node    int    `json:"node"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) duration() int64 { return s.EndNS - s.StartNS }

// recorder keeps the runner's spans in memory until the run ends. It is
// used from the runner goroutine only; engines record concurrently into
// their own trace.Tracer, whose spans are adopted after the call returns.
type recorder struct {
	clock func() int64
	spans []span
}

// begin opens a span and returns its ID.
func (r *recorder) begin(parent, query int, name string) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, Node: -1, StartNS: r.clock()})
	return id
}

func (r *recorder) end(id int) { r.spans[id-1].EndNS = r.clock() }

func (r *recorder) get(id int) span { return r.spans[id-1] }

// adopt files engine-published spans as children of the call that
// produced them.
func (r *recorder) adopt(parent, query int, engine []trace.Span) {
	for _, e := range engine {
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Query: query,
			Name: e.Name, Node: e.Node, StartNS: e.Start, EndNS: e.End})
	}
}

// selfTime is the span's duration minus the part of it its children
// cover. Children may overlap each other (P workers scan at once) and may
// stick out of the parent; only the union inside the parent is subtracted.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, edge int64
	edge = parent.StartNS
	for _, v := range ivs {
		if v.hi <= edge {
			continue
		}
		covered += v.hi - max(v.lo, edge)
		edge = v.hi
	}
	return parent.duration() - covered
}

// selfTimes returns every span's self time, keyed by span ID.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = selfTime(s, kids[s.ID])
	}
	return out
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
