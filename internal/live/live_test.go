package live

import (
	"fmt"
	"testing"

	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

// flatten concatenates a relation's partitions into one slice.
func flatten(rel *workload.Relation) []tuple.Tuple {
	var out []tuple.Tuple
	for _, p := range rel.PerNode {
		out = append(out, p...)
	}
	return out
}

func checkAgainstReference(t *testing.T, rel *workload.Relation, res *Result) {
	t.Helper()
	checkGroups(t, rel.Reference(), res.Groups)
}

// checkGroups requires got to be want, group for group.
func checkGroups(t *testing.T, want, got map[tuple.Key]tuple.AggState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for k, ws := range want {
		if gs, ok := got[k]; !ok || gs != ws {
			t.Fatalf("group %d = %v, want %v", k, got[k], ws)
		}
	}
}

func TestAllAlgorithmsAllWorkloads(t *testing.T) {
	workloads := []*workload.Relation{
		workload.Uniform(4, 20_000, 1, 1),
		workload.Uniform(4, 20_000, 50, 2),
		workload.Uniform(4, 20_000, 5_000, 3),
		workload.DupElim(4, 20_000, 2, 4),
		workload.OutputSkew(8, 20_000, 1_000, 5),
		workload.Zipf(4, 20_000, 2_000, 1.2, 6),
	}
	cfgs := []Config{
		{Workers: 4},                     // unbounded tables
		{Workers: 4, TableEntries: 64},   // heavy overflow / switching
		{Workers: 8, TableEntries: 1000}, // mild pressure
		{Workers: 1},                     // degenerate single worker
		{Workers: 3, Batch: 7},           // odd batch boundaries
	}
	for _, alg := range Algorithms() {
		for wi, rel := range workloads {
			for ci, cfg := range cfgs {
				name := fmt.Sprintf("%v/w%d/c%d", alg, wi, ci)
				t.Run(name, func(t *testing.T) {
					res, err := Aggregate(cfg, flatten(rel), alg)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstReference(t, rel, res)
				})
			}
		}
	}
}

func TestEmptyInput(t *testing.T) {
	for _, alg := range Algorithms() {
		res, err := Aggregate(Config{Workers: 4}, nil, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Groups) != 0 {
			t.Errorf("%v: empty input produced %d groups", alg, len(res.Groups))
		}
	}
}

func TestFewerTuplesThanWorkers(t *testing.T) {
	rel := workload.Uniform(1, 3, 2, 9)
	for _, alg := range Algorithms() {
		res, err := Aggregate(Config{Workers: 16}, flatten(rel), alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkAgainstReference(t, rel, res)
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := Aggregate(Config{}, []tuple.Tuple{{Key: 1}}, Algorithm(42)); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestA2PSwitchesUnderMemoryPressure(t *testing.T) {
	rel := workload.Uniform(1, 50_000, 20_000, 10)
	res, err := Aggregate(Config{Workers: 4, TableEntries: 500}, flatten(rel), AdaptiveTwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switched != 4 {
		t.Errorf("switched = %d workers, want all 4 under heavy pressure", res.Switched)
	}
	checkAgainstReference(t, rel, res)
	// With plenty of memory, no switch.
	res, err = Aggregate(Config{Workers: 4, TableEntries: 50_000}, flatten(rel), AdaptiveTwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switched != 0 {
		t.Errorf("switched = %d workers with ample memory, want 0", res.Switched)
	}
}

func TestARepFallsBackOnFewGroups(t *testing.T) {
	rel := workload.Uniform(1, 50_000, 5, 11)
	res, err := Aggregate(Config{Workers: 4, TableEntries: 1000}, flatten(rel), AdaptiveRepartitioning)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switched == 0 {
		t.Error("no worker fell back on a 5-group workload")
	}
	checkAgainstReference(t, rel, res)

	// Many groups: a 500-tuple window projects past the bound, and nobody
	// falls back.
	rel = workload.Uniform(1, 50_000, 20_000, 12)
	res, err = Aggregate(Config{Workers: 4, TableEntries: 1000}, flatten(rel), AdaptiveRepartitioning)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switched != 0 {
		t.Errorf("%d workers fell back on a 20000-group workload", res.Switched)
	}
	checkAgainstReference(t, rel, res)
}

func TestPartitionedPlacement(t *testing.T) {
	// The paper's output-skew placement, fed to the engine verbatim.
	rel := workload.OutputSkew(8, 16_000, 500, 13)
	res, err := AggregatePartitioned(Config{TableEntries: 64}, rel.PerNode, AdaptiveTwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, rel, res)
	if res.Switched == 0 || res.Switched == 8 {
		t.Errorf("switched = %d workers; output skew should switch only the group-heavy half", res.Switched)
	}
}

func TestPartitionBalance(t *testing.T) {
	ts := make([]tuple.Tuple, 103)
	parts := partition(ts, 7)
	total := 0
	for _, p := range parts {
		total += len(p)
		if len(p) < 103/7 || len(p) > 103/7+1 {
			t.Errorf("partition size %d", len(p))
		}
	}
	if total != 103 {
		t.Errorf("partitions cover %d of 103", total)
	}
}

func TestAlgorithmStrings(t *testing.T) {
	want := map[Algorithm]string{
		TwoPhase: "2P", Repartitioning: "Rep",
		AdaptiveTwoPhase: "A-2P", AdaptiveRepartitioning: "A-Rep",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), s)
		}
	}
}

func TestPerWorkerMetrics(t *testing.T) {
	rel := workload.Uniform(1, 20_000, 100, 21)
	res, err := Aggregate(Config{Workers: 4}, flatten(rel), Repartitioning)
	if err != nil {
		t.Fatal(err)
	}
	var scanned, routed, groups int64
	for _, m := range res.PerWorker {
		scanned += m.Scanned
		routed += m.Routed
		groups += m.GroupsOut
	}
	if scanned != 20_000 {
		t.Errorf("scanned = %d, want 20000", scanned)
	}
	if routed != 20_000 {
		t.Errorf("Rep routed = %d raw tuples, want all 20000", routed)
	}
	if groups != 100 {
		t.Errorf("GroupsOut sums to %d, want 100", groups)
	}
	// 2P routes nothing and sends exactly the local partials.
	res, err = Aggregate(Config{Workers: 4}, flatten(rel), TwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	var parts int64
	for _, m := range res.PerWorker {
		if m.Routed != 0 {
			t.Errorf("2P worker routed %d raw tuples", m.Routed)
		}
		parts += m.PartialsSent
	}
	if parts != 400 { // 100 groups seen on each of 4 workers
		t.Errorf("2P sent %d partials, want 400", parts)
	}
}
