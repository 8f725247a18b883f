package live

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

// fullTableProfile folds part into a table of bound entries until the table
// refuses a group, as an adaptive scan side does, and returns the count
// profile its switch sees: groups held, f1 of them seen once, f2 twice.
func fullTableProfile(part []tuple.Tuple, bound int) (observed, f1, f2 int) {
	tab := aggtable.New(bound)
	for _, tp := range part {
		if !tab.UpdateRaw(tp) {
			break
		}
	}
	tab.Each(func(_ tuple.Key, s tuple.AggState) {
		switch s.Count {
		case 1:
			f1++
		case 2:
			f2++
		}
	})
	return tab.Len(), f1, f2
}

// ownerCounts is how many groups of want each of w owners holds.
func ownerCounts(want map[tuple.Key]tuple.AggState, w int) []int {
	n := make([]int, w)
	for k := range want {
		n[k.Dest(w)]++
	}
	return n
}

// The switch's projection, checked against the groups each owner really
// ends up with: close on uniform input at the spine's shapes and seeds,
// declined on OutputSkew's many-groups partition (every group listed once
// before any repeats, so the full table holds no count-2 group), and never
// above rows ÷ workers, however wild the profile.
func TestProjectOwnerGroups(t *testing.T) {
	shapes := []struct {
		workers      int
		rows, groups int64
		bound        int
	}{
		{2, 1 << 16, 1 << 15, 2048}, // live_many at 1/8 scale
		{2, 1 << 17, 1 << 16, 4096}, // TestA2PAllocationCeiling's shape
		{4, 1 << 18, 1 << 15, 4096}, // selectivity 1/8
		{2, 1 << 20, 1 << 16, 4096}, // selectivity 1/16
	}
	for _, s := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			rel := workload.Uniform(s.workers, s.rows, s.groups, seed)
			truth := ownerCounts(rel.Reference(), s.workers)
			for p, part := range rel.PerNode {
				observed, f1, f2 := fullTableProfile(part, s.bound)
				est, ok := projectOwnerGroups(observed, f1, f2, int(s.rows), s.workers)
				name := fmt.Sprintf("w%d rows %d groups %d bound %d seed %d part %d (f1 %d, f2 %d)",
					s.workers, s.rows, s.groups, s.bound, seed, p, f1, f2)
				if !ok {
					t.Errorf("%s: declined", name)
					continue
				}
				for d, n := range truth {
					if e := math.Abs(float64(est)/float64(n) - 1); e > 0.25 {
						t.Errorf("%s: est %d, owner %d holds %d (off by %.0f%%)", name, est, d, n, 100*e)
					}
				}
			}
		}
	}

	for seed := int64(1); seed <= 4; seed++ {
		rel := workload.OutputSkew(2, 1<<17, 1<<14+1, seed)
		observed, f1, f2 := fullTableProfile(rel.PerNode[1], 2048)
		if est, ok := projectOwnerGroups(observed, f1, f2, 1<<17, 2); ok {
			t.Errorf("OutputSkew seed %d: projected %d/owner from f1 %d, f2 %d; want declined", seed, est, f1, f2)
		}
	}

	for _, rows := range []int{1, 100, 1 << 12, 1 << 20} {
		for _, workers := range []int{1, 2, 7} {
			for _, f2 := range []int{minDoubletons, 1 << 10} {
				for _, f1 := range []int{0, 1 << 10, 1 << 20} {
					est, _ := projectOwnerGroups(f1+f2, f1, f2, rows, workers)
					if est > rows/workers {
						t.Errorf("rows %d, workers %d, f1 %d, f2 %d: est %d over rows/workers", rows, workers, f1, f2, est)
					}
				}
			}
		}
	}
}

// mergeSpan is what one merge span's note says.
type mergeSpan struct{ groups, fanIn, reserved, slots int }

// tracedRun runs one query with a tracer and returns the result with every
// scan span's note and every merge span's parsed note, by worker.
func tracedRun(t *testing.T, cfg Config, parts [][]tuple.Tuple, alg Algorithm) (*Result, []string, []mergeSpan) {
	t.Helper()
	cfg.Tracer = trace.NewTracer(func() int64 { return time.Now().UnixNano() })
	res, err := AggregatePartitioned(cfg, parts, alg)
	if err != nil {
		t.Fatal(err)
	}
	scans, merges := make([]string, len(parts)), make([]mergeSpan, len(parts))
	for _, sp := range cfg.Tracer.Spans() {
		switch sp.Name {
		case "scan":
			scans[sp.Node] = sp.Detail
		case "merge":
			m := &merges[sp.Node]
			if _, err := fmt.Sscanf(sp.Detail, "%d groups, fan-in %d, reserved %d, %d slots",
				&m.groups, &m.fanIn, &m.reserved, &m.slots); err != nil {
				t.Fatalf("merge span %d note %q: %v", sp.Node, sp.Detail, err)
			}
		}
	}
	return res, scans, merges
}

// slotsFor is the slot array a table grown from empty ends with at n groups,
// and the one Reserve(n) gives an empty table.
func slotsFor(n int) int { return aggtable.NewSized(0, n).Slots() }

// On live_many's shape at 1/8 scale every worker switches, and the
// projection it sends sizes each merge table once: the final slot array is
// the one reserved at the switch — no doubling before it, none after.
func TestMergeReservedAtSwitch(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rel := workload.Uniform(2, 1<<16, 1<<15, seed)
		res, scans, merges := tracedRun(t, Config{TableEntries: 2048}, rel.PerNode, AdaptiveTwoPhase)
		if res.Switched != 2 {
			t.Fatalf("seed %d: %d workers switched, want 2", seed, res.Switched)
		}
		checkAgainstReference(t, rel, res)
		for i, note := range scans {
			if !strings.Contains(note, "/owner (f1 ") {
				t.Errorf("seed %d: scan %d note %q has no projection", seed, i, note)
			}
		}
		for i, m := range merges {
			if m.reserved <= 2048 {
				t.Errorf("seed %d: merge %d reserved %d, no more than a flush's floor", seed, i, m.reserved)
			}
			if m.slots != slotsFor(m.reserved) {
				t.Errorf("seed %d: merge %d holds %d groups in %d slots; reserved %d (%d slots)",
					seed, i, m.groups, m.slots, m.reserved, slotsFor(m.reserved))
			}
		}
	}
}

// A flush's floor is a count of groups the destination will hold, so it can
// never size a merge table past what growth alone reaches. live_few's shape
// is the case to show it: nothing switches, and both workers flush the same
// 1,024 groups at the end of their scans, each sending every owner the full
// count of its share — the merge side keeps the largest, not the sum.
func TestFlushFloorNeverOutgrowsGrowth(t *testing.T) {
	rel := workload.Uniform(2, 1<<16, 1024, 3)
	res, scans, merges := tracedRun(t, Config{TableEntries: 16384}, rel.PerNode, AdaptiveTwoPhase)
	if res.Switched != 0 {
		t.Fatalf("%d workers switched on 1,024 groups", res.Switched)
	}
	checkAgainstReference(t, rel, res)
	for i, m := range merges {
		if strings.Contains(scans[i], "est") {
			t.Errorf("scan %d note %q: a projection without a switch", i, scans[i])
		}
		if m.fanIn != 2 || m.reserved != m.groups {
			t.Errorf("merge %d: fan-in %d, reserved %d for %d groups; want both workers' full share", i, m.fanIn, m.reserved, m.groups)
		}
		if m.slots != slotsFor(m.groups) {
			t.Errorf("merge %d: %d slots for %d groups, growth alone reaches %d", i, m.slots, m.groups, slotsFor(m.groups))
		}
	}
}
