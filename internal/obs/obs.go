// Package obs is the repo's dependency-free observability layer: a
// metrics registry of counters and gauges organised into
// labeled families, exported deterministically (sorted families and
// series, so a same-seed simulation serializes byte-identically) and
// over HTTP in Prometheus text format and JSON.
//
// Design constraints, in order:
//
//   - Hot path is lock-free: instruments are resolved once (a mutexed
//     map lookup) and then updated with a single atomic add.
//   - Everything is int64. The quantities this repo measures — bytes,
//     tuples, nanoseconds, retries — are integers, and integer-only
//     metrics keep snapshots exactly reproducible across runs and
//     platforms (no float summation order to worry about).
//   - Nil-safety: methods on nil instruments, vectors and registries
//     are no-ops, so instrumented code needs no "if metrics enabled"
//     branches and a disabled registry costs nothing.
//
// The simulator stamps snapshots with virtual time (a gauge set from
// des.Time), never the wall clock, which is what makes the determinism
// contract of DESIGN.md §9 possible.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind int

// The metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
)

// String returns the Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically non-decreasing cumulative metric.
type Counter struct{ v atomic.Int64 }

// Add increases the counter by d. It panics on negative d (counters
// never go down; use a Gauge for that) and no-ops on a nil receiver.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	if d < 0 {
		panic(fmt.Sprintf("obs: counter decreased by %d", -d))
	}
	c.v.Add(d)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by d (which may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Max raises the gauge to v if v is larger — a high-water mark. The
// CAS loop keeps it safe under concurrent observers.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// series is one labeled instance inside a family.
type series struct {
	labelVals []string
	c         *Counter
	g         *Gauge
}

// value returns the series' counter or gauge value.
func (s *series) value() int64 {
	if s.c != nil {
		return s.c.Value()
	}
	return s.g.Value()
}

// family is one named metric with a fixed label schema.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu sync.Mutex
	//aggvet:guard mu
	series map[string]*series
}

// get returns the series for the given label values, creating it on
// first use.
func (f *family) get(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has %d labels %v, got %d values %v",
			f.name, len(f.labels), f.labels, len(vals), vals))
	}
	key := strings.Join(vals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelVals: append([]string(nil), vals...)}
		switch f.kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		}
		f.series[key] = s
	}
	return s
}

// sorted returns the family's series ordered by label values, the
// deterministic snapshot order.
func (f *family) sorted() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelVals, out[j].labelVals
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// Registry holds metric families. The zero value is not usable; call
// New. A nil *Registry is a valid "metrics disabled" registry: every
// lookup returns nil instruments whose methods no-op.
type Registry struct {
	mu sync.Mutex
	//aggvet:guard mu
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register finds or creates a family, enforcing a consistent schema
// for re-registrations (same kind and labels).
func (r *Registry) register(name, help string, kind Kind, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:   name,
			help:   help,
			kind:   kind,
			labels: append([]string(nil), labels...),
			series: make(map[string]*series),
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind || !equalStrings(f.labels, labels) {
		panic(fmt.Sprintf("obs: metric %s re-registered with a different schema", name))
	}
	return f
}

// CounterVec declares (or finds) a counter family with the given label
// keys. Nil registries return a nil vector whose With returns nil.
type CounterVec struct{ f *family }

// Counter returns the unlabeled counter named name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec declares a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, KindCounter, labelKeys)}
}

// With returns the counter for the given label values.
func (v *CounterVec) With(labelVals ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(labelVals).c
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// Gauge returns the unlabeled gauge named name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec declares a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, KindGauge, labelKeys)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(labelVals).g
}

// sortedFamilies returns the registry's families in name order.
func (r *Registry) sortedFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	out := make([]*family, len(names))
	for i, n := range names {
		r.mu.Lock()
		out[i] = r.families[n]
		r.mu.Unlock()
	}
	return out
}

// validName reports whether s is a legal Prometheus metric/label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
