package parallelagg_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"parallelagg"
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

func TestAllPublicAlgorithmsAgree(t *testing.T) {
	prm := quickParams()
	rel := parallelagg.OutputSkew(prm.N, 8_000, 600, 2)
	want := rel.Reference()
	for _, alg := range parallelagg.Algorithms() {
		res, err := parallelagg.Aggregate(prm, rel, alg, parallelagg.Options{})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Groups) != len(want) {
			t.Errorf("%v: %d groups, want %d", alg, len(res.Groups), len(want))
		}
	}
}

// The simulator and the live engine trace one span vocabulary: an A-2P
// run of one workload gives a scan and a merge span per node on the
// virtual clock and per worker on the wall clock, and both engines' scan
// notes open with the same "N tuples, switched=B" prefix.
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
	// Output: 3 groups in 0.226s
}
