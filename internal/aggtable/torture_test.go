package aggtable

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"parallelagg/internal/tuple"
)

// This file is the differential torture harness for the concurrent
// Shared table: N goroutines replay seeded operation schedules against
// one Shared instance while the single-threaded Table acts as the
// oracle. Because AggState.Update/Merge are commutative and associative,
// and the schedules are constructed so that refusal is impossible (the
// bound, when set, covers the whole key space), every interleaving must
// aggregate to exactly the oracle's contents — byte for byte, in the
// deterministic ascending drain order.
//
// Drains issued *while writers are active* are checked with the
// linearizability-style accounting invariant: every update lands in
// exactly one drain snapshot (or the final state), never zero and never
// two. Folding the union of all snapshots back into a fresh table must
// therefore reproduce the oracle exactly.
//
// Run with -race; CI does.

// tortureGoroutines is the goroutine-count axis of the torture matrix.
var tortureGoroutines = []int{2, 3, 4, 6, 8, 16}

// tortureOp is one schedule entry: a raw update or a partial merge.
type tortureOp struct {
	merge bool
	t     tuple.Tuple
	p     tuple.Partial
}

// buildSchedule generates ops-per-goroutine seeded schedules over a key
// space, feeding every operation into the oracle as it is drawn.
func buildSchedule(rng *rand.Rand, goroutines, ops int, keySpace int64, oracle *Table) [][]tortureOp {
	scheds := make([][]tortureOp, goroutines)
	for g := range scheds {
		scheds[g] = make([]tortureOp, ops)
		for i := range scheds[g] {
			k := tuple.Key(rng.Int63n(keySpace))
			v := rng.Int63n(2000) - 1000
			if rng.Intn(100) < 70 {
				scheds[g][i] = tortureOp{t: tuple.Tuple{Key: k, Val: v}}
				oracle.UpdateRaw(scheds[g][i].t)
			} else {
				scheds[g][i] = tortureOp{merge: true, p: tuple.Partial{Key: k, State: tuple.NewState(v)}}
				oracle.MergePartial(scheds[g][i].p)
			}
		}
	}
	return scheds
}

// apply replays one goroutine's schedule. Every operation must be
// absorbed: the harness only builds schedules that cannot be refused.
func apply(t *testing.T, sh *Shared, sched []tortureOp, drainAt int, drains *[][]tuple.Partial, mu *sync.Mutex) {
	for i, op := range sched {
		if drainAt == i {
			d := sh.Drain()
			mu.Lock()
			*drains = append(*drains, d)
			mu.Unlock()
		}
		var ok bool
		if op.merge {
			ok = sh.MergePartial(op.p)
		} else {
			ok = sh.UpdateRaw(op.t)
		}
		if !ok {
			t.Errorf("op %d refused on an unrefusable schedule", i)
			return
		}
	}
}

// checkAscending asserts one drain snapshot is strictly ascending — the
// deterministic order contract, and no duplicate keys within a snapshot.
func checkAscending(t *testing.T, ctx string, ps []tuple.Partial) {
	t.Helper()
	for i := 1; i < len(ps); i++ {
		if ps[i].Key <= ps[i-1].Key {
			t.Fatalf("%s: drain not strictly ascending at %d (%d after %d)", ctx, i, ps[i].Key, ps[i-1].Key)
		}
	}
}

// foldUnion merges drain snapshots plus a final state into a fresh
// unbounded sequential table and returns its sorted contents.
func foldUnion(snapshots [][]tuple.Partial, final []tuple.Partial) []tuple.Partial {
	acc := New(0)
	for _, snap := range snapshots {
		for _, pt := range snap {
			acc.MergePartial(pt)
		}
	}
	for _, pt := range final {
		acc.MergePartial(pt)
	}
	return acc.Drain()
}

// TestConcurrentDifferentialTorture is the 50-seed × 6-goroutine-count
// lockstep matrix: mixed Update/Merge/Drain/Reset schedules, bounded and
// unbounded tables, mid-stream concurrent drains, all compared byte for
// byte against the sequential oracle.
func TestConcurrentDifferentialTorture(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for _, goroutines := range tortureGoroutines {
			seed, goroutines := seed, goroutines
			rng := rand.New(rand.NewSource(seed*100 + int64(goroutines)))

			keySpace := int64(1) << uint(4+rng.Intn(7)) // 16..1024 groups
			bound := 0
			if seed%2 == 1 {
				// Bounded, but covering the key space: the reservation
				// path runs on every insert yet can never refuse, so the
				// outcome stays independent of interleaving.
				bound = int(keySpace)
			}
			stripes := 1 << rng.Intn(6)
			ops := 100 + rng.Intn(300)
			rounds := 2 + rng.Intn(2)

			sh := NewShared(bound, stripes)
			for round := 0; round < rounds; round++ {
				oracle := New(0)
				scheds := buildSchedule(rng, goroutines, ops, keySpace, oracle)

				// One goroutine may fire a Drain mid-schedule while the
				// others keep writing.
				drainer, drainAt := -1, -1
				if rng.Intn(2) == 0 {
					drainer = rng.Intn(goroutines)
					drainAt = rng.Intn(ops)
				}

				var mu sync.Mutex
				var drains [][]tuple.Partial
				var wg sync.WaitGroup
				wg.Add(goroutines)
				for g := 0; g < goroutines; g++ {
					g := g
					at := -1
					if g == drainer {
						at = drainAt
					}
					go func() {
						defer wg.Done()
						apply(t, sh, scheds[g], at, &drains, &mu)
					}()
				}
				wg.Wait()
				if t.Failed() {
					t.Fatalf("seed %d g %d round %d: schedule refused", seed, goroutines, round)
				}

				// Quiescent now. Union of mid-stream snapshots plus the
				// final drain must equal the oracle exactly.
				final := sh.Drain()
				checkAscending(t, "final drain", final)
				for _, d := range drains {
					checkAscending(t, "mid-stream drain", d)
				}
				got := foldUnion(drains, final)
				want := oracle.Partials()
				if len(got) != len(want) {
					t.Fatalf("seed %d g %d round %d: %d groups, oracle %d",
						seed, goroutines, round, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d g %d round %d: group %d = %+v, oracle %+v",
							seed, goroutines, round, i, got[i], want[i])
					}
				}

				// Between rounds, exercise Reset (the table is already
				// drained, so Reset must be a no-op on contents).
				if rng.Intn(2) == 0 {
					sh.Reset()
				}
				if sh.Len() != 0 {
					t.Fatalf("seed %d g %d round %d: Len = %d after drain, want 0",
						seed, goroutines, round, sh.Len())
				}
			}
		}
	}
}

// TestConcurrentBoundedRefusalTorture hammers a small bound from many
// goroutines with far more distinct keys than capacity. The exact set of
// winners depends on the interleaving, but three invariants do not:
//
//  1. Len never exceeds the bound (the atomic reservation is strict);
//  2. the final drain holds exactly bound groups (capacity was reachable
//     and refusals never free a slot);
//  3. every operation lands exactly once — either in the table or in its
//     caller's refusal list — so folding drain ∪ refusals reproduces the
//     sequential oracle of the full schedule.
func TestConcurrentBoundedRefusalTorture(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, goroutines := range []int{2, 4, 8} {
			rng := rand.New(rand.NewSource(seed*31 + int64(goroutines)))
			const bound = 64
			const keySpace = 512
			ops := 1000 + rng.Intn(1000)

			oracle := New(0)
			scheds := buildSchedule(rng, goroutines, ops, keySpace, oracle)

			sh := NewShared(bound, 8)
			refused := make([][]tuple.Partial, goroutines)
			var overBound atomic.Bool
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				g := g
				go func() {
					defer wg.Done()
					for i, op := range scheds[g] {
						var ok bool
						if op.merge {
							ok = sh.MergePartial(op.p)
						} else {
							ok = sh.UpdateRaw(op.t)
						}
						if !ok {
							pt := op.p
							if !op.merge {
								pt = tuple.Partial{Key: op.t.Key, State: tuple.NewState(op.t.Val)}
							}
							refused[g] = append(refused[g], pt)
						}
						if i%64 == 0 && sh.Len() > bound {
							overBound.Store(true)
						}
					}
				}()
			}
			wg.Wait()
			if overBound.Load() {
				t.Fatalf("seed %d g %d: Len exceeded the bound mid-run", seed, goroutines)
			}

			final := sh.Drain()
			checkAscending(t, "bounded drain", final)
			if len(final) != bound {
				t.Fatalf("seed %d g %d: drained %d groups, want exactly the bound %d",
					seed, goroutines, len(final), bound)
			}
			got := foldUnion(refused, final)
			want := oracle.Partials()
			if len(got) != len(want) {
				t.Fatalf("seed %d g %d: drain∪refusals has %d groups, oracle %d",
					seed, goroutines, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d g %d: group %d = %+v, oracle %+v",
						seed, goroutines, i, got[i], want[i])
				}
			}
		}
	}
}

// TestConcurrentResetTorture interleaves writers with a concurrent Reset
// and checks the structural invariants survive: no crash under -race, the
// table stays usable, and a final quiescent drain is sorted and within
// bound. (Reset discards data by design, so there is no accounting
// identity to check — that is what Drain is for.)
func TestConcurrentResetTorture(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sh := NewShared(128, 8)
		oracle := New(0)
		scheds := buildSchedule(rng, 4, 2000, 256, oracle)
		var wg sync.WaitGroup
		wg.Add(5)
		for g := 0; g < 4; g++ {
			g := g
			go func() {
				defer wg.Done()
				for _, op := range scheds[g] {
					if op.merge {
						sh.MergePartial(op.p)
					} else {
						sh.UpdateRaw(op.t)
					}
				}
			}()
		}
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sh.Reset()
			}
		}()
		wg.Wait()
		final := sh.Drain()
		checkAscending(t, "post-reset drain", final)
		if len(final) > 128 {
			t.Fatalf("seed %d: drain has %d groups, bound 128", seed, len(final))
		}
		if sh.Len() != 0 {
			t.Fatalf("seed %d: Len = %d after final drain", seed, sh.Len())
		}
	}
}
