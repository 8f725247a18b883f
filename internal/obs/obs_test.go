package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("frames_total", "frames")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestCounterVecSeparatesSeries(t *testing.T) {
	r := New()
	v := r.CounterVec("bytes_total", "bytes per peer", "peer")
	v.With("0").Add(10)
	v.With("1").Add(20)
	v.With("0").Add(5)
	if got := v.With("0").Value(); got != 15 {
		t.Fatalf(`With("0") = %d, want 15`, got)
	}
	if got := v.With("1").Value(); got != 20 {
		t.Fatalf(`With("1") = %d, want 20`, got)
	}
}

func TestGauge(t *testing.T) {
	r := New()
	g := r.Gauge("occupancy", "entries")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("Value = %d, want 4", got)
	}
	g.Max(10)
	g.Max(2) // lower: ignored
	if got := g.Value(); got != 10 {
		t.Fatalf("after Max: Value = %d, want 10", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.Gauge("b", "").Set(1)
	r.CounterVec("d", "", "l").With("x").Add(1)
	r.GaugeVec("e", "", "l").With("x").Max(1)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("nil registry snapshot = %q, want empty", got)
	}
	var b bytes.Buffer
	if err := r.WriteProm(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry WriteProm = (%v, %q)", err, b.String())
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func(order []string) []byte {
		r := New()
		v := r.CounterVec("zz_total", "", "peer")
		g := r.GaugeVec("aa_now", "", "node")
		for _, p := range order {
			v.With(p).Inc()
			g.With(p).Set(int64(len(p)))
		}
		return r.Snapshot()
	}
	a := build([]string{"2", "0", "1"})
	b := build([]string{"1", "2", "0"})
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ with registration order:\n%s\nvs\n%s", a, b)
	}
	// aa_now must serialize before zz_total, and peers in value order.
	s := string(a)
	if !strings.Contains(s, "aa_now") || strings.Index(s, "aa_now") > strings.Index(s, "zz_total") {
		t.Fatalf("families not name-sorted:\n%s", s)
	}
	if strings.Index(s, `peer="0"`) > strings.Index(s, `peer="1"`) {
		t.Fatalf("series not label-sorted:\n%s", s)
	}
}

func TestReregisterSameSchemaSharesState(t *testing.T) {
	r := New()
	r.Counter("x_total", "help").Add(3)
	if got := r.Counter("x_total", "help").Value(); got != 3 {
		t.Fatalf("re-resolved counter = %d, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different kind did not panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := New()
	for _, bad := range []string{"", "9lives", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

func TestWriteJSONIsValidAndDeterministic(t *testing.T) {
	r := New()
	r.CounterVec("c_total", "counts", "node").With("1").Add(4)
	r.Gauge("g_now", `quo"te`).Set(-2)
	var b1, b2 bytes.Buffer
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two WriteJSON calls differ")
	}
	var doc struct {
		Families []struct {
			Name   string `json:"name"`
			Type   string `json:"type"`
			Series []struct {
				Labels map[string]string `json:"labels"`
				Value  *int64            `json:"value"`
			} `json:"series"`
		} `json:"families"`
	}
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b1.String())
	}
	if len(doc.Families) != 2 {
		t.Fatalf("got %d families, want 2", len(doc.Families))
	}
	if doc.Families[0].Name != "c_total" || *doc.Families[0].Series[0].Value != 4 {
		t.Fatalf("unexpected first family: %+v", doc.Families[0])
	}
	if doc.Families[1].Name != "g_now" || doc.Families[1].Type != "gauge" || *doc.Families[1].Series[0].Value != -2 {
		t.Fatalf("unexpected gauge family: %+v", doc.Families[1])
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	r.CounterVec("esc_total", "", "addr").With(`a"b\c` + "\n").Inc()
	out := string(r.Snapshot())
	want := `esc_total{addr="a\"b\\c\n"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("escaped series missing; got:\n%s", out)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := New()
	v := r.CounterVec("conc_total", "", "w")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := v.With("x")
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := v.With("x").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}
