package dist

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/trace"
	"parallelagg/internal/workload"
)

// mergeSpan is what one fail-fast merge span's note says, or one tolerant
// commit span's of a node's own primary stream.
type mergeSpan struct{ groups, reserved, slots int }

// tracedCluster runs one query with a tracer, checks it against the
// sequential fold, and returns every scan span's note and every merge
// span's parsed note (in tolerant mode, the commit span's of the node's own
// stream), by node.
func tracedCluster(t *testing.T, ctx string, rel *workload.Relation, cfg Config) ([]string, []mergeSpan) {
	t.Helper()
	cfg.Tracer = trace.NewTracer(func() int64 { return time.Now().UnixNano() })
	res, err := runWatched(t, ctx, rel.PerNode, cfg)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	verify(t, rel, res.Groups)
	scans, merges := make([]string, len(rel.PerNode)), make([]mergeSpan, len(rel.PerNode))
	for _, sp := range cfg.Tracer.Spans() {
		switch sp.Name {
		case "scan":
			scans[sp.Node] = sp.Detail
		case "merge":
			m := &merges[sp.Node]
			if _, err := fmt.Sscanf(sp.Detail, "%d groups, reserved %d, %d slots",
				&m.groups, &m.reserved, &m.slots); err != nil {
				t.Fatalf("%s: merge span %d note %q: %v", ctx, sp.Node, sp.Detail, err)
			}
		case "commit":
			var origin, epoch int
			var m mergeSpan
			if _, err := fmt.Sscanf(sp.Detail, "stream (origin %d, epoch %d): %d groups, reserved %d, %d slots",
				&origin, &epoch, &m.groups, &m.reserved, &m.slots); err != nil {
				t.Fatalf("%s: commit span %d note %q: %v", ctx, sp.Node, sp.Detail, err)
			}
			if origin == sp.Node && epoch == 0 {
				merges[sp.Node] = m
			}
		}
	}
	return scans, merges
}

// slotsFor is the slot array Reserve(n) gives an empty table, and the one a
// table grown from empty ends with at n groups.
func slotsFor(n int) int { return aggtable.NewSized(0, n).Slots() }

// On dist_loop's shape at 1/8 scale both nodes switch, and the projection
// each scanner hands its own merge side sizes the merge table once: the
// final slot array is the one reserved at the switch — no doubling before
// it, none after. In tolerant mode that table is the stage of the node's
// own stream.
func TestMergeReservedAtSwitch(t *testing.T) {
	const bound = 2048
	for i := 0; i < 6; i++ {
		seed := int64(1 + i%3)
		rel := workload.Uniform(2, 1<<17, 25_000, seed)
		cfg := Config{Algorithm: AdaptiveTwoPhase, TableEntries: bound}
		if i >= 3 {
			cfg = tolerantTemplate(AdaptiveTwoPhase)
			cfg.TableEntries = bound
		}
		ctx := fmt.Sprintf("seed %d, tolerate=%v", seed, cfg.Tolerate)
		scans, merges := tracedCluster(t, ctx, rel, cfg)
		for i, note := range scans {
			if !strings.Contains(note, "switched=true, est ") || !strings.Contains(note, "/range (f1 ") {
				t.Errorf("%s: scan %d note %q: no switch or no projection", ctx, i, note)
			}
		}
		for i, m := range merges {
			if m.reserved <= bound/2 {
				t.Errorf("%s: merge %d reserved %d, no more than one full table", ctx, i, m.reserved)
			}
			if m.slots != slotsFor(m.reserved) {
				t.Errorf("%s: merge %d holds %d groups in %d slots; reserved %d (%d slots)",
					ctx, i, m.groups, m.slots, m.reserved, slotsFor(m.reserved))
			}
		}
	}
}

// Where no switch projects — an unbounded table flushed once at the end of
// the scan, plain 2P's evictions — a node's own scan reserves only each
// flush's floor, the groups that flush sends its own range: never more than
// the range ends with, so the merge table ends where growth alone takes it,
// and the unsorted flushes still give the sequential fold's answer.
func TestFlushWithoutProjection(t *testing.T) {
	for _, c := range []struct {
		alg   Algorithm
		bound int
	}{{AdaptiveTwoPhase, 0}, {TwoPhase, 512}} {
		for seed := int64(1); seed <= 3; seed++ {
			rel := workload.Uniform(3, 30_000, 6_000, seed)
			ctx := fmt.Sprintf("%v bound %d seed %d", c.alg, c.bound, seed)
			scans, merges := tracedCluster(t, ctx, rel, Config{Algorithm: c.alg, TableEntries: c.bound})
			for i, m := range merges {
				if strings.Contains(scans[i], "est") {
					t.Errorf("%s: scan %d note %q: a projection without a switch", ctx, i, scans[i])
				}
				if m.reserved == 0 || m.reserved > m.groups || m.slots != slotsFor(m.groups) {
					t.Errorf("%s: merge %d: reserved %d, %d slots for %d groups, growth alone reaches %d",
						ctx, i, m.reserved, m.slots, m.groups, slotsFor(m.groups))
				}
			}
		}
	}
}
