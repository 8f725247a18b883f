package live

import (
	"fmt"
	"math/rand"
	"testing"

	"parallelagg/internal/workload"
)

// The scan side folds and routes a chunk at a time, so its adaptive
// switches fire at chunk boundaries and a refusing chunk folds what it can
// first. This suite is the teeth of the argument that none of that shows in
// the result: seeded workloads, bounds and chunk sizes, and every algorithm
// — the adaptive and shared ones included, whose switch timing depends on
// the chunking — must produce the sequential map fold
// (workload.Relation.Reference) group for group.

// diffWorkload builds a deterministic workload for one differential
// seed, sweeping selectivity (groups/tuples) and table pressure so low-,
// mid-, and high-cardinality regimes all appear across the 50 seeds.
func diffWorkload(seed int64) (*workload.Relation, Config) {
	rng := rand.New(rand.NewSource(seed))
	tuples := int64(4_000 + rng.Intn(8_000))
	sels := []float64{0.0005, 0.01, 0.1, 0.5}
	groups := int64(float64(tuples) * sels[rng.Intn(len(sels))])
	if groups < 3 {
		groups = 3 // OutputSkew's minimum
	}
	var rel *workload.Relation
	switch rng.Intn(3) {
	case 0:
		rel = workload.Uniform(4, tuples, groups, seed)
	case 1:
		rel = workload.OutputSkew(4, tuples, groups, seed)
	default:
		rel = workload.Zipf(4, tuples, groups, 1.1, seed)
	}
	cfg := Config{
		Workers: 1 + rng.Intn(4),
		Batch:   []int{0, 7, 256, 1024}[rng.Intn(4)],
	}
	// Mix unbounded, tight, and loose bounds to cross the refusal paths.
	switch rng.Intn(3) {
	case 0:
		cfg.TableEntries = 0
	case 1:
		cfg.TableEntries = 32 + rng.Intn(96)
	default:
		cfg.TableEntries = int(groups)/2 + 1
	}
	return rel, cfg
}

func TestBatchScalarDifferential(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rel, cfg := diffWorkload(seed)
		in := flatten(rel)
		for _, alg := range Algorithms() {
			t.Run(fmt.Sprintf("seed%d/%v", seed, alg), func(t *testing.T) {
				res, err := Aggregate(cfg, in, alg)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, rel, res)
			})
		}
	}
}

// Both shipping modes reach the merge side: 2P ships partials
// (PartialsSent > 0) and Rep routes raw tuples (Routed > 0), and each
// run's groups equal the sequential reference.
func TestBatchPathShipsColumnar(t *testing.T) {
	rel := workload.Uniform(4, 20_000, 2_000, 31)
	res, err := Aggregate(Config{Workers: 4}, flatten(rel), TwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	var partials int64
	for _, m := range res.PerWorker {
		partials += m.PartialsSent
	}
	if partials == 0 {
		t.Error("two-phase shipped no partials")
	}
	checkAgainstReference(t, rel, res)

	res, err = Aggregate(Config{Workers: 4}, flatten(rel), Repartitioning)
	if err != nil {
		t.Fatal(err)
	}
	var routed int64
	for _, m := range res.PerWorker {
		routed += m.Routed
	}
	if routed == 0 {
		t.Error("repartitioning routed no tuples")
	}
	checkAgainstReference(t, rel, res)
}

// Buffers and tables the engine pools must not leak state from one query
// into the next: every algorithm, run twice on the same bounded config,
// returns the same groups both times.
func TestBatchPathDeterministic(t *testing.T) {
	rel := workload.Zipf(4, 15_000, 1_500, 1.2, 42)
	in := flatten(rel)
	cfg := Config{Workers: 4, TableEntries: 200}
	for _, alg := range Algorithms() {
		a, err := Aggregate(cfg, in, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		b, err := Aggregate(cfg, in, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(a.Groups) != len(b.Groups) {
			t.Fatalf("%v: run1 %d groups, run2 %d", alg, len(a.Groups), len(b.Groups))
		}
		for k, s := range a.Groups {
			if s2, ok := b.Groups[k]; !ok || s2 != s {
				t.Fatalf("%v group %d: run1 %+v, run2 %+v", alg, k, s, b.Groups[k])
			}
		}
	}
}
