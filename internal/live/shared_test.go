package live

import (
	"fmt"
	"math/rand"
	"runtime"
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
			Workers:      1 + rng.Intn(8),
			TableEntries: []int{0, 16, 256}[rng.Intn(3)],
			Batch:        1 + rng.Intn(64),
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
	// With plenty of memory, nobody switches and nothing is exchanged. One
	// worker keeps the contention trigger off (no other worker can hold a
	// stripe lock): on a box that preempts a stripe-lock holder it fires
	// legitimately, and this half is about the bound trigger only.
	res, err = Aggregate(Config{Workers: 1, TableEntries: 50_000}, flatten(rel), AdaptiveShared)
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
// isolation: the window trips exactly past sharedRatio.
func TestSharedContentionPredicate(t *testing.T) {
	wk := &worker{cfg: Config{}.withDefaults()}
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

// TestSharedContentionWindowResets drives a frontless shared-mode worker
// chunk by chunk (no concurrency, so nothing contends) and checks the
// window bookkeeping rolls over without tripping the flag.
func TestSharedContentionWindowResets(t *testing.T) {
	const chunk = sharedWindow * 5 / 8 // the second chunk closes the window
	wk := newSharedWorker(Config{Workers: 1}, AdaptiveShared, false, 0)
	for i := 0; i < 4*chunk; i += chunk {
		seg := make([]tuple.Tuple, chunk)
		for j := range seg {
			seg[j] = tuple.Tuple{Key: tuple.Key(i + j), Val: 1}
		}
		if wk.sharedChunk(seg) {
			t.Fatalf("chunk at %d: a worker without a front reported a cold one", i)
		}
		if want := (i + chunk) % (2 * chunk); wk.sharedSeen != want {
			t.Errorf("after %d tuples: sharedSeen = %d, want %d (the window closes at sharedWindow and starts over)", i+chunk, wk.sharedSeen, want)
		}
	}
	if wk.fallback.Load() {
		t.Error("uncontended run raised the fallback flag")
	}
	if wk.shared.Len() != 4*chunk || wk.miss.Len() != 0 {
		t.Errorf("shared table holds %d keys with %d misses pending, want %d and 0", wk.shared.Len(), wk.miss.Len(), 4*chunk)
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

// absorbedShare is the part of the input the fronts folded privately.
func absorbedShare(res *Result) float64 {
	var absorbed, scanned int64
	for _, m := range res.PerWorker {
		absorbed += m.Absorbed
		scanned += m.Scanned
	}
	return float64(absorbed) / float64(scanned)
}

// directSharedFold is shared mode with nothing in front of the table: every
// tuple takes its stripe lock (Shared.UpdateRaw), and what the table refuses
// at the budget's bound goes to an unbounded overflow table, merged at the end.
func directSharedFold(cfg Config, in []tuple.Tuple) map[tuple.Key]tuple.AggState {
	cfg = cfg.withDefaults()
	shared := aggtable.NewShared(cfg.TableEntries*cfg.Workers, 0)
	overflow := aggtable.New(0)
	for _, tp := range in {
		if !shared.UpdateRaw(tp) {
			overflow.UpdateRaw(tp)
		}
	}
	got := map[tuple.Key]tuple.AggState{}
	shared.Each(func(k tuple.Key, s tuple.AggState) { got[k] = s })
	overflow.Each(func(k tuple.Key, s tuple.AggState) { mergeGroup(got, k, s) })
	return got
}

// TestSharedFrontMatchesDirectFold holds the front to the direct fold, which
// knows no front, chunk or miss batch, and both to the sequential reference —
// over an input the front can do nothing for (uniform, far more groups than
// it holds), one it is made for (Zipf 1.2), and its weak case: a key-sorted
// input, where every key's tuples arrive in one run, so an evicting cache
// would absorb nearly all of them, and a first-come front keeps the first keys
// it met, misses every run after them and is given up as cold. Budgets go from
// none (TableEntries < 4: no front at all) through fronts of 25 and 125 entries
// to the full-size one, bounded and unbounded.
func TestSharedFrontMatchesDirectFold(t *testing.T) {
	const rows = 24_000
	sorted := make([]tuple.Tuple, rows)
	for i := range sorted {
		sorted[i] = tuple.Tuple{Key: tuple.Key(i / 12), Val: int64(i%97) - 40} // 2,000 keys, 12 in a row each
	}
	shapes := []struct {
		name string
		in   []tuple.Tuple
	}{
		{"uniform-many", flatten(workload.Uniform(1, rows, 12_000, 51))},
		{"zipf", flatten(workload.Zipf(1, rows, 8_192, 1.2, 52))},
		{"sorted", sorted},
	}
	for _, sh := range shapes {
		want := (&workload.Relation{PerNode: [][]tuple.Tuple{sh.in}}).Reference()
		for _, entries := range []int{0, 1, 3, 100, 500, 16384} {
			for _, workers := range []int{1, 2, 4, 7} {
				cfg := Config{Workers: workers, TableEntries: entries, Batch: 512}
				direct := directSharedFold(cfg, sh.in)
				for _, alg := range []Algorithm{Shared, AdaptiveShared} {
					name := fmt.Sprintf("%s/entries%d/w%d/%v", sh.name, entries, workers, alg)
					res, err := Aggregate(cfg, sh.in, alg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(res.Groups) != len(want) || len(direct) != len(want) {
						t.Fatalf("%s: front %d groups, direct %d, reference %d", name, len(res.Groups), len(direct), len(want))
					}
					for k, ws := range want {
						if res.Groups[k] != ws || direct[k] != ws {
							t.Fatalf("%s: group %d: front %+v, direct %+v, reference %+v", name, k, res.Groups[k], direct[k], ws)
						}
					}
					share := absorbedShare(res)
					switch {
					case entries > 0 && entries < 4 && share != 0:
						t.Errorf("%s: no room for a front, yet %.3f of the input was absorbed", name, share)
					case entries == 500 && sh.name != "zipf" && share > float64(workers*125*12)/rows:
						// Each front keeps 125 first-come keys of 12,000 uniform or
						// 2,000 sorted ones, and no key has more than 12 tuples.
						t.Errorf("%s: 125-entry fronts absorbed %.3f of the input", name, share)
					case entries == 16384 && sh.name == "zipf" && alg == Shared && share < 0.8:
						t.Errorf("%s: a full-size front absorbed only %.3f of a Zipf input", name, share)
					}
				}
			}
		}
	}
}

// newSharedWorker builds one shared-mode scan side with nobody else in the
// query; its inboxes hold up to room messages, since nobody receives.
func newSharedWorker(cfg Config, alg Algorithm, flagUp bool, room int) *worker {
	cfg = cfg.withDefaults()
	var flag atomic.Bool
	flag.Store(flagUp)
	inboxes := make([]chan message, cfg.Workers)
	for i := range inboxes {
		inboxes[i] = make(chan message, room)
	}
	_, bound := cfg.sharedBudget()
	return &worker{cfg: cfg, alg: alg, inboxes: inboxes, fallback: &flag, m: &WorkerMetrics{},
		pools: newExchangePools(cfg.Workers), shared: aggtable.NewShared(bound, 0), sharedOv: aggtable.New(0)}
}

// runSharedScan drives one AdaptiveShared scan side by hand and returns the
// worker and everything its partition turned into: the shared table's
// contents plus what it put on the exchange.
func runSharedScan(t *testing.T, cfg Config, part []tuple.Tuple, flagUp bool) (*worker, bool, map[tuple.Key]tuple.AggState) {
	t.Helper()
	wk := newSharedWorker(cfg, AdaptiveShared, flagUp, len(part)+1)
	inboxes := wk.inboxes
	switched := wk.scanSide(part)
	got := map[tuple.Key]tuple.AggState{}
	wk.shared.Each(func(k tuple.Key, s tuple.AggState) { mergeGroup(got, k, s) })
	for _, ch := range inboxes {
		close(ch)
		for m := range ch {
			for _, tp := range m.raw {
				mergeGroup(got, tp.Key, tuple.NewState(tp.Val))
			}
			for _, p := range m.part {
				mergeGroup(got, p.Key, p.State)
			}
		}
	}
	return wk, switched, got
}

// TestASharedFallsBackWithFrontAndMisses: when AdaptiveShared leaves shared
// mode its front is not empty and its miss batch is part-filled; both must
// reach the shared table (or, refused there, the exchange) before the
// fallback strategy takes over, whether the flag went up under this worker's
// own bound pressure or by another worker's hand.
func TestASharedFallsBackWithFrontAndMisses(t *testing.T) {
	// A 16-entry front and 64-tuple batches: the front's 16 first-come keys
	// are 85 % of the input, so it stays warm, and every chunk leaves some
	// ten misses behind — the miss batch fills every sixth chunk and is
	// part-filled at the others — over 900 keys the 96-entry table must refuse.
	rng := rand.New(rand.NewSource(61))
	part := make([]tuple.Tuple, 6_000)
	for i := range part {
		k := i
		if i >= 16 {
			if k = rng.Intn(16); rng.Intn(100) >= 85 {
				k = 16 + rng.Intn(900)
			}
		}
		part[i] = tuple.Tuple{Key: tuple.Key(k), Val: int64(i%89) - 30}
	}
	rel := &workload.Relation{PerNode: [][]tuple.Tuple{part}}
	cfg := Config{Workers: 2, TableEntries: 64, Batch: 64}
	for _, flagUp := range []bool{false, true} {
		wk, switched, got := runSharedScan(t, cfg, part, flagUp)
		if !switched || !wk.fallback.Load() {
			t.Fatalf("flagUp=%v: switched=%v flag=%v, want a fallback", flagUp, switched, wk.fallback.Load())
		}
		if wk.m.Absorbed < 40 {
			t.Errorf("flagUp=%v: the front absorbed %d tuples before the fallback", flagUp, wk.m.Absorbed)
		}
		if wk.front != nil || wk.miss.Len() != 0 {
			t.Errorf("flagUp=%v: left shared mode with a front (%v) or %d misses still held", flagUp, wk.front != nil, wk.miss.Len())
		}
		if flagUp && wk.shared.Len() == 0 {
			t.Errorf("another worker's flag: the first chunk's front and misses never reached the shared table")
		}
		if !flagUp && wk.shared.Len() != wk.shared.Cap() {
			t.Errorf("bound pressure: shared table holds %d of %d entries at the fallback", wk.shared.Len(), wk.shared.Cap())
		}
		if wk.m.Routed == 0 || wk.m.PartialsSent == 0 {
			t.Errorf("flagUp=%v: fallback strategy shipped %d raw, %d partials", flagUp, wk.m.Routed, wk.m.PartialsSent)
		}
		checkAgainstReference(t, rel, &Result{Groups: got})
	}
}

// TestSharedColdFrontGivenUp: a front whose first-come keys turn out cold is
// emptied into the shared table after the first chunk it mostly misses, and
// shared mode goes on without it; one that keeps absorbing stays.
func TestSharedColdFrontGivenUp(t *testing.T) {
	chunk := func(first, keys int) []tuple.Tuple {
		seg := make([]tuple.Tuple, 64)
		for i := range seg {
			seg[i] = tuple.Tuple{Key: tuple.Key(first + i%keys), Val: int64(i)}
		}
		return seg
	}
	for _, alg := range []Algorithm{Shared, AdaptiveShared} {
		wk := newSharedWorker(Config{Workers: 2, TableEntries: 64, Batch: 64}, alg, false, 8)
		n, _ := wk.cfg.sharedBudget() // 16 entries
		wk.front = aggtable.NewSized(n, n)
		steps := []struct {
			seg  []tuple.Tuple
			cold bool
		}{
			{chunk(0, 16), false},  // fills the front
			{chunk(0, 20), false},  // 12 of 64 missed
			{chunk(100, 64), true}, // all missed
			{chunk(0, 16), false},  // no front left to be cold
		}
		for i, st := range steps {
			cold := wk.sharedChunk(st.seg)
			if cold != st.cold {
				t.Fatalf("%v: chunk %d: cold=%v, want %v", alg, i, cold, st.cold)
			}
			if cold {
				wk.leaveShared()
			}
			if (wk.front == nil) != (i >= 2) {
				t.Fatalf("%v: after chunk %d: front held=%v", alg, i, wk.front != nil)
			}
		}
		if wk.m.Absorbed != 64+52 || wk.miss.Len() != 0 || wk.shared.Len() != 20+64 || wk.fallback.Load() {
			t.Errorf("%v: absorbed %d, %d misses pending, table holds %d keys, flag %v; want 116, 0, 84, false",
				alg, wk.m.Absorbed, wk.miss.Len(), wk.shared.Len(), wk.fallback.Load())
		}
	}
}

// TestSharedBudget: the fronts come out of the TableEntries×Workers budget
// the Shared doc promises, not on top of it, a budget too small to carve
// leaves no front, and a front fits the one batch it is emptied through.
func TestSharedBudget(t *testing.T) {
	for _, entries := range []int{0, 1, 2, 3, 4, 5, 100, 500, 16384, 1 << 20} {
		for _, workers := range []int{1, 2, 4, 7} {
			for _, batch := range []int{0, 7, 100_000} {
				cfg := Config{Workers: workers, TableEntries: entries, Batch: batch}.withDefaults()
				front, bound := cfg.sharedBudget()
				if front > frontEntries || front > cfg.Batch || front < 0 {
					t.Errorf("entries %d workers %d batch %d: front of %d entries", entries, workers, batch, front)
				}
				if entries == 0 {
					if bound != 0 {
						t.Errorf("unbounded budget gave the shared table a bound of %d", bound)
					}
					continue
				}
				if bound < 1 || front*workers+bound > entries*workers {
					t.Errorf("entries %d workers %d batch %d: %d fronts of %d + bound %d exceed %d",
						entries, workers, batch, workers, front, bound, entries*workers)
				}
				if (entries < 4) != (front == 0) {
					t.Errorf("entries %d: front of %d entries", entries, front)
				}
			}
		}
	}
}

// Shared's allocation is a per-query constant that scales with groups, not
// rows: the striped table and its growth, one presized front and miss batch
// per worker, the front's way out through one pooled partial batch, and a
// result map made at its final size. On shared_hot's shape at 1/64 that was
// 1.4–1.6 MB a query (one or two partial batches, as the pool has it) when
// the first ceiling was set; with 32-byte states it is 0.344 MB, and the
// ceiling is 1.3 times that. A per-worker columnar copy of the chunk in
// front of the fold, which is what the scan side made until the front
// folded rows where they lie, adds 0.2 MB presized and 0.5 MB grown by
// append. Under -race sync.Pool drops a share of what it is given, and
// the query allocates about 0.69 MB. The least of three runs is taken, as
// in TestBoundedRerunAllocationCeiling.
func TestSharedAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what it is given")
	}
	const rows, groups, ceiling = 1 << 16, 128, 447_000
	rel := workload.Zipf(2, rows, groups, 1.2, 5)
	cfg := Config{TableEntries: 16384}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := AggregatePartitioned(cfg, rel.PerNode, Shared)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Switched != 0 || absorbedShare(res) < 0.99 {
			t.Fatalf("switched=%d absorbed=%.3f: not the regime this test pins", res.Switched, absorbedShare(res))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warm-up: goroutine stacks, runtime pools
	got := min(run(), run(), run())
	t.Logf("Shared allocated %d B for the query", got)
	if got > ceiling {
		t.Errorf("Shared allocated %d B for the query, ceiling %d", got, ceiling)
	}
}
