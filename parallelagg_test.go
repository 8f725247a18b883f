package parallelagg_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"parallelagg"
	"parallelagg/internal/dist"
	"parallelagg/internal/trace"
	"parallelagg/live"
)

func quickParams() parallelagg.Params {
	prm := parallelagg.ImplementationParams()
	prm.N = 4
	prm.HashEntries = 128
	return prm
}

func TestPublicAPIRoundTrip(t *testing.T) {
	prm := quickParams()
	rel := parallelagg.Uniform(prm.N, 10_000, 500, 1)
	res, err := parallelagg.Aggregate(prm, rel, parallelagg.AdaptiveTwoPhase, parallelagg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 500 {
		t.Errorf("got %d groups, want 500", len(res.Groups))
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not positive")
	}
	var count int64
	for _, s := range res.Groups {
		count += s.Count
	}
	if count != 10_000 {
		t.Errorf("counts sum to %d, want 10000", count)
	}
}

// The simulator and the live engine trace one span vocabulary: an A-2P
// run of one workload gives a scan and a merge span per node on the
// virtual clock and per worker on the wall clock, and both engines' scan
// notes open with the same "N tuples, switched=B" prefix. A-Rep's verdict
// on its window reads the same on both clocks: each node's scan note ends
// with the same "fell back: est E ≤ bound B (f1 a, f2 b)" or "stayed Rep:
// est E > B (…)" in both engines (a node whose window a relayed
// end-of-phase cut short has none), and the simulator's end-of-phase span
// carries it too.
func TestSimAndLiveShareSpanVocabulary(t *testing.T) {
	prm := quickParams()
	rel := parallelagg.Uniform(prm.N, 8_000, 2_000, 5) // every node switches
	sim, err := parallelagg.Aggregate(prm, rel, parallelagg.AdaptiveTwoPhase, parallelagg.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer(func() int64 { return time.Now().UnixNano() })
	if _, err := live.AggregatePartitioned(live.Config{TableEntries: prm.HashEntries, Tracer: tr},
		rel.PerNode, live.AdaptiveTwoPhase); err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		tr   *parallelagg.Tracer
	}{{"sim", sim.Trace}, {"live", tr}} {
		scans, merges := make([]int, prm.N), make([]int, prm.N)
		for _, sp := range run.tr.Spans() {
			switch sp.Name {
			case "scan":
				scans[sp.Node]++
				if !strings.HasPrefix(sp.Detail, fmt.Sprintf("%d tuples, switched=", len(rel.PerNode[sp.Node]))) {
					t.Errorf("%s: node %d scan note %q", run.name, sp.Node, sp.Detail)
				}
			case "merge":
				merges[sp.Node]++
			}
		}
		for node := 0; node < prm.N; node++ {
			if scans[node] != 1 || merges[node] != 1 {
				t.Errorf("%s: node %d has %d scan and %d merge spans, want 1 each",
					run.name, node, scans[node], merges[node])
			}
		}
	}
	// A-Rep: M = 128 gives a 64-tuple window.
	for _, c := range []struct {
		groups int64
		prefix string
	}{{8, "fell back: est "}, {2_000, "stayed Rep: est "}} {
		rel := parallelagg.Uniform(prm.N, 8_000, c.groups, 5)
		sim, err := parallelagg.Aggregate(prm, rel, parallelagg.AdaptiveRepartitioning, parallelagg.Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.NewTracer(func() int64 { return time.Now().UnixNano() })
		if _, err := live.AggregatePartitioned(live.Config{TableEntries: prm.HashEntries, Tracer: tr},
			rel.PerNode, live.AdaptiveRepartitioning); err != nil {
			t.Fatal(err)
		}
		verdicts := func(tr *parallelagg.Tracer) ([]string, int) {
			v, eop := make([]string, prm.N), 0
			for _, sp := range tr.Spans() {
				switch {
				case sp.Name == "scan":
					if i := strings.Index(sp.Detail, ", "+c.prefix[:6]); i >= 0 {
						v[sp.Node] = sp.Detail[i+2:]
					}
				case sp.Name == "end-of-phase" && strings.HasPrefix(sp.Detail, c.prefix):
					eop++
				}
			}
			return v, eop
		}
		simV, simEOP := verdicts(sim.Trace)
		liveV, _ := verdicts(tr)
		judged := 0
		for node := range simV {
			for _, v := range []string{simV[node], liveV[node]} {
				if v != "" && !strings.HasPrefix(v, c.prefix) {
					t.Errorf("%d groups: node %d verdict %q, want %q…", c.groups, node, v, c.prefix)
				}
			}
			if simV[node] != "" && liveV[node] != "" {
				judged++
				if simV[node] != liveV[node] {
					t.Errorf("%d groups: node %d judged %q in the simulator, %q live", c.groups, node, simV[node], liveV[node])
				}
			}
		}
		fell := c.groups == 8
		if judged == 0 || (!fell && judged != prm.N) {
			t.Errorf("%d groups: %d nodes judged their windows on both clocks (sim %q, live %q)", c.groups, judged, simV, liveV)
		}
		if fell != (simEOP > 0) {
			t.Errorf("%d groups: %d end-of-phase spans carry the verdict", c.groups, simEOP)
		}
	}
}

// The fallback rule is one rule on every substrate: over the same
// relation and table bound, the simulator, the live engine and a loopback
// dist cluster all fall back at 1,024 groups, which fit the 16,384-entry
// table, and none does at 2^18 groups, which do not.
func TestARepFallsBackAlikeOnEverySubstrate(t *testing.T) {
	const nodes, rows, bound = 4, 1 << 16, 16_384
	prm := quickParams()
	prm.N, prm.HashEntries = nodes, bound
	for _, groups := range []int64{1_024, 1 << 18} {
		rel := parallelagg.Uniform(nodes, nodes*rows, groups, 7)
		want := 0
		if groups == 1_024 {
			want = nodes
		}
		sim, err := parallelagg.Aggregate(prm, rel, parallelagg.AdaptiveRepartitioning, parallelagg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lv, err := live.AggregatePartitioned(live.Config{TableEntries: bound}, rel.PerNode, live.AdaptiveRepartitioning)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := dist.RunConfigured(rel.PerNode, dist.Config{Algorithm: dist.AdaptiveRepartitioning, TableEntries: bound})
		if err != nil {
			t.Fatal(err)
		}
		if sim.Switched != want || lv.Switched != want || ds.Switched != want {
			t.Errorf("%d groups: fell back on %d simulated, %d live and %d dist nodes, want %d each",
				groups, sim.Switched, lv.Switched, ds.Switched, want)
		}
	}
}

func TestCostModelAccessible(t *testing.T) {
	m := parallelagg.NewCostModel(parallelagg.DefaultParams())
	b := m.A2P(0.001)
	if b.Total() <= 0 {
		t.Error("cost model returned non-positive time")
	}
}

func TestExperimentRunnerAccessible(t *testing.T) {
	r := parallelagg.NewExperimentRunner(0.01, 1)
	e, err := r.Figure("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if err := parallelagg.CheckExperiment(e); err != nil {
		t.Error(err)
	}
	if got := len(parallelagg.ExperimentIDs()); got != 9 {
		t.Errorf("%d experiment IDs, want 9", got)
	}
}

func TestAvgDerivedFromState(t *testing.T) {
	prm := quickParams()
	rel := parallelagg.Uniform(prm.N, 1_000, 4, 3)
	res, err := parallelagg.Aggregate(prm, rel, parallelagg.TwoPhase, parallelagg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range res.Groups {
		if s.Count <= 0 {
			t.Errorf("group %d has count %d", k, s.Count)
		}
		avg := s.Avg()
		if avg < float64(s.Min) || avg > float64(s.Max) {
			t.Errorf("group %d: avg %v outside [min=%d, max=%d]", k, avg, s.Min, s.Max)
		}
	}
}

// ExampleAggregate demonstrates the one-call API. Virtual time is
// deterministic, so even the timing prints reproducibly.
func ExampleAggregate() {
	prm := parallelagg.ImplementationParams()
	prm.Tuples = 10_000
	rel := parallelagg.Uniform(prm.N, prm.Tuples, 3, 7)
	res, err := parallelagg.Aggregate(prm, rel, parallelagg.AdaptiveTwoPhase, parallelagg.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d groups in %v\n", len(res.Groups), res.Elapsed)
	// Output: 3 groups in 0.225s
}
