package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestTracerRecordsSpans(t *testing.T) {
	now := int64(0)
	tr := NewTracer(func() int64 { now += 100; return now })
	sp := tr.Begin(3, "scan")
	sp.End("1000 tuples")
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Node != 3 || s.Name != "scan" || s.Start != 100 || s.End != 200 || s.Detail != "1000 tuples" {
		t.Fatalf("unexpected span %+v", s)
	}
	if s.Duration() != 100 {
		t.Fatalf("Duration = %d, want 100", s.Duration())
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin(0, "x")
	sp.End("")
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded something")
	}
	var b strings.Builder
	if err := tr.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no spans") {
		t.Fatalf("nil render = %q", b.String())
	}
}

func TestSpansSortedDeterministically(t *testing.T) {
	tr := NewTracer(func() int64 { return 42 }) // all spans identical times
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.Begin(i, "merge").End("")
		}(i)
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != 16 {
		t.Fatalf("got %d spans, want 16", len(spans))
	}
	for i, s := range spans {
		if s.Node != i {
			t.Fatalf("span %d has node %d: not sorted by node at equal start", i, s.Node)
		}
	}
}

func TestRenderAligned(t *testing.T) {
	now := int64(0)
	tr := NewTracer(func() int64 { now += 5e8; return now })
	tr.Begin(0, "dial").End("3 peers")
	var b strings.Builder
	if err := tr.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "dial") || !strings.Contains(out, "3 peers") || !strings.Contains(out, "node 0") {
		t.Fatalf("render output missing fields: %q", out)
	}
}

func TestSpansTiedKeepRecordingOrder(t *testing.T) {
	// Tied spans interleaved with earlier-starting ones, so the sort has
	// to move them.
	var now int64
	tr := NewTracer(func() int64 { return now })
	const n = 64
	for i := 0; i < n; i++ {
		now = 1000
		tr.Begin(2, "switch").End(fmt.Sprintf("event %d", i))
		now = int64(n - i)
		tr.Begin(0, "scan").End("")
	}
	spans := tr.Spans()
	if len(spans) != 2*n {
		t.Fatalf("got %d spans, want %d", len(spans), 2*n)
	}
	for i, s := range spans[n:] {
		if want := fmt.Sprintf("event %d", i); s.Detail != want {
			t.Fatalf("tied span %d detail %q, want %q: tied spans reordered", i, s.Detail, want)
		}
	}
}
