package live

import (
	"runtime"
	"testing"

	"parallelagg/internal/workload"
)

// TableEntries is an allocation as well as a cap: a worker's scan table is
// made at the bound, slotsFor(TableEntries) slots of 41 B (a control byte,
// an 8-byte key, a 32-byte state) — 32,768 slots, 1.3 MB, at 16,384 — and
// that is the most scan-table memory a worker holds. The table comes from
// aggtable's slab pool and goes back there at the end of the scan, as the
// merge tables do once poured, so a repeated run of the same shape
// allocates none of it again: here two workers' first run takes 3.0 MB, and
// every later one about 190 kB (the result map, the merge tables' Reserve
// floors, partial buffers, goroutines), against 730 kB when each run grew
// its own scan tables from 64 slots. The ceiling is a fifth of one worker's
// scan table, so a run that allocates a scan table, or regrows a merge
// table, fails. The least of three runs is taken: a pool is emptied by two
// garbage collections in a row, which may fall between two runs.
func TestBoundedRerunAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what it is given")
	}
	const workers, rows, groups, bound = 2, 1 << 16, 1024, 16384
	const scanTable = 32768 * 41
	const ceiling = scanTable / 5
	rel := workload.Uniform(workers, rows, groups, 5)
	for _, alg := range []Algorithm{TwoPhase, AdaptiveTwoPhase} {
		run := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := AggregatePartitioned(Config{TableEntries: bound}, rel.PerNode, alg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Switched != 0 || len(res.Groups) != groups {
				t.Fatalf("%v: switched=%d groups=%d, want 0 and %d: not the regime this test pins", alg, res.Switched, len(res.Groups), groups)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		run() // warm-up: the pool's slabs, goroutine stacks
		if got := min(run(), run(), run()); got > ceiling {
			t.Errorf("%v: a repeated run allocated %d B, ceiling %d (a fifth of one worker's %d B scan table)", alg, got, ceiling, scanTable)
		}
	}
}
