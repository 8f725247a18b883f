package live

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

// The merge side holds every group its worker owns in one growing table,
// however small TableEntries is. With eight times more groups per worker
// than the scan-side bound, every merge table grows through several
// doublings while partials and raw tuples keep arriving; every algorithm
// must still produce the sequential fold — as three oracles that share no
// code compute it: workload's reference map ("default"), and adaptive two-phase
// written out by hand over per-tuple aggtable calls ("scalar") and over
// builtin maps ("maptables"). Three inputs take the paths whose flushes are
// unsorted and make no projection: plain 2P's evictions, and switches
// from a table too small to hold repeats (on OutputSkew, from one that lists
// every group once first). Without a projection, each merge table must
// end at exactly the size growth alone reaches, floors or not. One of them
// shifts every value by 3/4 of MaxInt64, so every group's SUM
// crosses MaxInt64 and must wrap alike on every path. A fourth input is
// live_many's shape at half scale ("Staged", after a region stage its
// merge tables once had): there the adaptive switches project each owner's
// groups past 2^16 slots, so its merge tables are reserved that large.
func TestHighCardinalityDifferential(t *testing.T) {
	const workers, bound = 4, 128
	wrapping := workload.Uniform(workers, 60_000, 8*bound*workers, 47)
	for _, part := range wrapping.PerNode {
		for i := range part {
			part[i].Val += math.MaxInt64 / 4 * 3
		}
	}
	for ri, in := range []struct {
		rel   *workload.Relation
		bound int
	}{
		{workload.Uniform(workers, 60_000, 8*bound*workers, 41), bound},
		{workload.OutputSkew(workers, 60_000, 8*bound*workers, 43), bound},
		{wrapping, bound},
		{workload.Uniform(2, 1<<18, 1<<17, 53), 4096},
	} {
		rel, projected := in.rel, ri == 3
		oracles := []struct {
			name string
			want map[tuple.Key]tuple.AggState
		}{
			{"default", rel.Reference()},
			{"scalar", sequentialA2P(rel.PerNode, in.bound, newAggTable)},
			{"maptables", sequentialA2P(rel.PerNode, in.bound, newMapTable)},
		}
		groups := len(oracles[0].want)
		if groups < 8*in.bound*len(rel.PerNode) {
			t.Fatalf("%s has %d groups, want at least %d", rel.Name, groups, 8*in.bound*len(rel.PerNode))
		}
		for _, alg := range Algorithms() {
			res, scans, merges := tracedRun(t, Config{TableEntries: in.bound}, rel.PerNode, alg)
			for _, or := range oracles {
				name := []string{"", "OutputSkew/", "Wrapping/", "Staged/"}[ri] + fmt.Sprintf("%v/%s", alg, or.name)
				t.Run(name, func(t *testing.T) {
					checkGroups(t, or.want, res.Groups)
				})
			}
			var out, spilled int64
			for i, m := range res.PerWorker {
				out += m.GroupsOut
				spilled += m.Spilled
				mg := merges[i]
				if projected {
					if large := alg == AdaptiveTwoPhase || alg == AdaptiveShared; large && mg.slots <= 1<<16 {
						t.Errorf("%s/%v: merge %d reserved %d, %d slots: not past 2^16", rel.Name, alg, i, mg.reserved, mg.slots)
					}
					continue
				}
				if strings.Contains(scans[i], "/owner") {
					t.Errorf("%s/%v: scan %d projected from a %d-entry table: %q", rel.Name, alg, i, in.bound, scans[i])
				}
				if mg.slots != slotsFor(mg.groups) {
					t.Errorf("%s/%v: merge %d ends at %d slots for %d groups (reserved %d), growth alone reaches %d",
						rel.Name, alg, i, mg.slots, mg.groups, mg.reserved, slotsFor(mg.groups))
				}
			}
			// The shared table keeps groups of its own: plain Shared's, and
			// under A-Shared those of workers that switched late or, on
			// OutputSkew, never.
			if alg != Shared && (alg != AdaptiveShared || ri == 0 || ri == 2) && out != int64(groups) {
				t.Errorf("%s/%v: merge sides produced %d groups, want %d", rel.Name, alg, out, groups)
			}
			if alg == TwoPhase && spilled == 0 {
				t.Errorf("%s: plain 2P evicted nothing from its %d-entry tables", rel.Name, in.bound)
			}
		}
	}
}

// assemble hands the merge tables to kernel.Assemble in worker order, so
// two tables sharing a key must fail with an error that names the key and
// the second worker, under the engine's prefix.
func TestAssembleNamesDuplicateProducer(t *testing.T) {
	t.Run("aggtable", func(t *testing.T) {
		build := func() []*aggtable.Table {
			a, b, c := aggtable.New(0), aggtable.New(0), aggtable.New(0)
			for k := 0; k < 100; k++ {
				a.UpdateRaw(tuple.Tuple{Key: tuple.Key(k), Val: 1})
				b.UpdateRaw(tuple.Tuple{Key: tuple.Key(100 + k), Val: 2})
			}
			c.UpdateRaw(tuple.Tuple{Key: 1000, Val: 3})
			return []*aggtable.Table{a, b, c}
		}

		got, err := assemble(build(), 0)
		if err != nil {
			t.Fatalf("disjoint tables: %v", err)
		}
		if len(got) != 201 || got[7] != tuple.NewState(1) || got[107] != tuple.NewState(2) || got[1000] != tuple.NewState(3) {
			t.Fatalf("disjoint tables assembled to %d groups (7: %+v)", len(got), got[7])
		}

		owned := build()
		owned[2].UpdateRaw(tuple.Tuple{Key: 42, Val: 3}) // owned by worker 0 already
		got, err = assemble(owned, 0)
		if err == nil {
			t.Fatalf("duplicate producer accepted, %d groups", len(got))
		}
		if got != nil {
			t.Errorf("error returned with a non-nil result map")
		}
		if !strings.HasPrefix(err.Error(), "live: ") {
			t.Errorf("error %q lacks the engine prefix", err)
		}
		for _, want := range []string{"group 42 ", "second: 2"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not contain %q", err, want)
			}
		}
	})
}

// The merge side used to refuse entries past TableEntries, widen each
// refused 16-byte tuple to a 48-byte partial in a growing slice, and
// replay the slice into a second table: ≈460 B allocated per input row at
// selectivity 0.5. One growing table plus the result map was ≈190 B/row
// here; reserved once at the switch instead of doubling from 64 slots, and
// flushed from the scan side without a drained copy, and with 32-byte
// states, it is 52 B/row. Each merge table here is reserved past 2^16
// slots, where a slab taken fresh every query, 41 B a slot, would show
// past the ceiling of 1.3 times what this shape measured when it was set.
// The least of three runs is taken, as in TestBoundedRerunAllocationCeiling,
// which says why -race is skipped.
func TestA2PAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what it is given")
	}
	const rows, ceiling = 1 << 18, 67
	rel := workload.Uniform(2, rows, 1<<17, 5)
	groups := len(rel.Reference())
	run := func() uint64 {
		cfg := Config{TableEntries: 4096, Tracer: trace.NewTracer(func() int64 { return 0 })}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := AggregatePartitioned(cfg, rel.PerNode, AdaptiveTwoPhase)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Switched != 2 || len(res.Groups) != groups {
			t.Fatalf("switched=%d groups=%d, want 2 and %d: not the regime this test pins", res.Switched, len(res.Groups), groups)
		}
		for _, sp := range cfg.Tracer.Spans() {
			var groups, reserved, slots int
			if sp.Name != "merge" {
				continue
			}
			if _, err := fmt.Sscanf(sp.Detail, "%d groups, reserved %d, %d slots", &groups, &reserved, &slots); err != nil || slots <= 1<<16 {
				t.Fatalf("merge %d: %q: not the regime this test pins", sp.Node, sp.Detail)
			}
		}
		return (after.TotalAlloc - before.TotalAlloc) / rows
	}
	run() // warm-up: goroutine stacks, runtime pools
	got := min(run(), run(), run())
	t.Logf("A-2P allocated %d B per input row", got)
	if got > ceiling {
		t.Errorf("A-2P allocated %d B per input row, ceiling %d", got, ceiling)
	}
}
