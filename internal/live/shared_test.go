package live

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

// sortedGroups renders a result as the deterministic ascending-key
// partial list, the byte-comparable form of the differential tests.
func sortedGroups(res *Result) []tuple.Partial {
	out := make([]tuple.Partial, 0, len(res.Groups))
	for k, s := range res.Groups {
		out = append(out, tuple.Partial{Key: k, State: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TestSharedMatchesTwoPhaseDifferential runs Shared and A-Shared head to
// head against TwoPhase over seeded random workloads — worker counts,
// bounds, batch sizes — and requires byte-identical sorted results. The
// 1995 algorithm is the oracle for the 2025 one.
func TestSharedMatchesTwoPhaseDifferential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2000 + rng.Intn(8000)
		keySpace := int64(1) << uint(2+rng.Intn(12))
		in := make([]tuple.Tuple, n)
		for i := range in {
			in[i] = tuple.Tuple{Key: tuple.Key(rng.Int63n(keySpace)), Val: rng.Int63n(1000) - 500}
		}
		cfg := Config{
			Workers:       1 + rng.Intn(8),
			TableEntries:  []int{0, 16, 256}[rng.Intn(3)],
			Batch:         1 + rng.Intn(64),
			InitSeg:       64,
			SharedStripes: 1 << rng.Intn(6),
		}
		ref, err := Aggregate(cfg, in, TwoPhase)
		if err != nil {
			t.Fatalf("seed %d: 2P: %v", seed, err)
		}
		want := sortedGroups(ref)
		for _, alg := range []Algorithm{Shared, AdaptiveShared} {
			res, err := Aggregate(cfg, in, alg)
			if err != nil {
				t.Fatalf("seed %d: %v: %v", seed, alg, err)
			}
			got := sortedGroups(res)
			if len(got) != len(want) {
				t.Fatalf("seed %d: %v produced %d groups, 2P %d", seed, alg, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d: %v group %d = %+v, 2P %+v", seed, alg, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSharedBoundOverflowExact forces the shared table's global bound to
// refuse most groups and checks the overflow path still produces the
// exact reference result.
func TestSharedBoundOverflowExact(t *testing.T) {
	rel := workload.Uniform(1, 50_000, 20_000, 31)
	res, err := Aggregate(Config{Workers: 4, TableEntries: 100}, flatten(rel), Shared)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, rel, res)
	var spilled int64
	for _, m := range res.PerWorker {
		spilled += m.Spilled
	}
	if spilled == 0 {
		t.Error("bound 100×4 over 20000 groups spilled nothing")
	}
	if res.Switched != 0 {
		t.Errorf("plain Shared reported %d switches", res.Switched)
	}
}

// TestASharedFallsBackOnBoundPressure: the adaptive variant must switch
// to two-phase instead of spilling, and still be exact.
func TestASharedFallsBackOnBoundPressure(t *testing.T) {
	rel := workload.Uniform(1, 50_000, 20_000, 32)
	res, err := Aggregate(Config{Workers: 4, TableEntries: 500}, flatten(rel), AdaptiveShared)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, rel, res)
	if res.Switched == 0 {
		t.Error("no worker fell back under bound pressure")
	}
	// With plenty of memory, nobody switches and nothing is exchanged.
	// SwitchRatio 1 turns the contention trigger off (contended folds can
	// never exceed folds): on a box that preempts a stripe-lock holder it
	// fires legitimately, and this half is about the bound trigger only.
	res, err = Aggregate(Config{Workers: 4, TableEntries: 50_000, SwitchRatio: 1}, flatten(rel), AdaptiveShared)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, rel, res)
	if res.Switched != 0 {
		t.Errorf("switched = %d workers with ample memory, want 0", res.Switched)
	}
	for i, m := range res.PerWorker {
		if m.Routed != 0 || m.PartialsSent != 0 {
			t.Errorf("worker %d exchanged traffic (%d raw, %d partials) without a fallback",
				i, m.Routed, m.PartialsSent)
		}
	}
}

// TestSharedNoExchangeTraffic: the defining property of the shared
// algorithm — zero raw tuples routed, zero partials shipped.
func TestSharedNoExchangeTraffic(t *testing.T) {
	rel := workload.Uniform(1, 20_000, 1_000, 33)
	res, err := Aggregate(Config{Workers: 4}, flatten(rel), Shared)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, rel, res)
	for i, m := range res.PerWorker {
		if m.Routed != 0 || m.PartialsSent != 0 {
			t.Errorf("worker %d: Shared exchanged traffic (%d raw, %d partials)", i, m.Routed, m.PartialsSent)
		}
		if m.GroupsOut != 0 {
			t.Errorf("worker %d: merge side produced %d groups under Shared", i, m.GroupsOut)
		}
	}
	if res.PerWorker[0].TableOcc == 0 {
		t.Error("shared occupancy never recorded")
	}
}

// TestSharedContentionPredicate unit-tests the fallback decision in
// isolation: the window trips exactly past SwitchRatio.
func TestSharedContentionPredicate(t *testing.T) {
	wk := &worker{cfg: Config{SwitchRatio: 0.1}.withDefaults()}
	wk.sharedSeen = 100
	wk.sharedContended = 10
	if wk.sharedContentionHigh() {
		t.Error("10/100 contended tripped a 0.1 threshold (boundary must not trip)")
	}
	wk.sharedContended = 11
	if !wk.sharedContentionHigh() {
		t.Error("11/100 contended did not trip a 0.1 threshold")
	}
}

// TestSharedContentionWindowResets drives sharedStep directly (no
// concurrency, so nothing contends) and checks the window bookkeeping
// rolls over without tripping the flag.
func TestSharedContentionWindowResets(t *testing.T) {
	var flag atomic.Bool
	wk := &worker{
		cfg:      Config{InitSeg: 8, SwitchRatio: 0.1}.withDefaults(),
		alg:      AdaptiveShared,
		fallback: &flag,
		m:        &WorkerMetrics{},
		shared:   aggtable.NewShared(0, 0),
	}
	for i := 0; i < 20; i++ {
		if !wk.sharedStep(tuple.Tuple{Key: tuple.Key(i), Val: 1}) {
			t.Fatalf("uncontended sharedStep %d not absorbed", i)
		}
	}
	if wk.fallback.Load() {
		t.Error("uncontended run raised the fallback flag")
	}
	if wk.sharedSeen >= 8 {
		t.Errorf("window never reset: sharedSeen = %d", wk.sharedSeen)
	}
}

// TestAllAlgorithmStringsCovered keeps String() and Algorithms() in sync.
func TestAllAlgorithmStringsCovered(t *testing.T) {
	want := map[Algorithm]string{
		Shared: "Shared", AdaptiveShared: "A-Shared",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), s)
		}
	}
	seen := map[string]bool{}
	for _, a := range Algorithms() {
		name := a.String()
		if seen[name] {
			t.Errorf("duplicate algorithm name %q", name)
		}
		seen[name] = true
		if len(name) == 0 || name[0] == 'A' && name == fmt.Sprintf("Algorithm(%d)", int(a)) {
			t.Errorf("algorithm %d has no paper abbreviation", int(a))
		}
	}
}
