package live

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

// mergeSpan is what one merge span's note says.
type mergeSpan struct{ groups, reserved, slots, fanIn int }

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
			if _, err := fmt.Sscanf(sp.Detail, "%d groups, reserved %d, %d slots, fan-in %d",
				&m.groups, &m.reserved, &m.slots, &m.fanIn); err != nil {
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
