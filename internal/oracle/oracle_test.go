// Package oracle holds one test, TestOracle, and no code of its own: the
// paper's claim that every algorithm computes the exact aggregate, whatever
// it switches to, checked on every substrate at once. One seeded matrix of
// workloads runs through the simulator, the live engine, the TCP cluster in
// both modes and the SQL layer, and each result is held, group for group in
// key order, to a sequential fold written here, so no substrate is checked
// against code it shares with the others.
package oracle

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"parallelagg/internal/core"
	"parallelagg/internal/dist"
	"parallelagg/internal/live"
	"parallelagg/internal/params"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
	"parallelagg/sqlagg"
)

type groups = map[tuple.Key]tuple.AggState

// scenario is one workload of the matrix; short marks the -short subset.
type scenario struct {
	name  string
	rel   *workload.Relation
	short bool
}

// scenarios is the matrix: every shape the substrates' own differentials
// ran, on 1 to 8 nodes, and a few seeded random draws of node count, size,
// groups and shape.
func scenarios(short bool) []scenario {
	each := func(rel *workload.Relation, f func(part []tuple.Tuple)) *workload.Relation {
		for _, part := range rel.PerNode {
			f(part)
		}
		return rel
	}
	vals := func(rel *workload.Relation, f func(int64) int64) *workload.Relation {
		return each(rel, func(part []tuple.Tuple) {
			for i := range part {
				part[i].Val = f(part[i].Val)
			}
		})
	}
	byKey := func(a, b tuple.Tuple) int { return cmp.Compare(a.Key, b.Key) }
	oneNode := workload.Uniform(4, 4_000, 500, 12)
	oneNode.PerNode = [][]tuple.Tuple{nil, nil, nil, slices.Concat(oneNode.PerNode...)}
	all := []scenario{
		{"uniform", workload.Uniform(4, 4_000, 700, 1), true},
		{"zipf", workload.Zipf(3, 4_000, 2_000, 1.1, 2), false},
		{"outputskew", workload.OutputSkew(8, 4_000, 600, 3), true},
		{"inputskew", workload.InputSkew(4, 4_000, 400, 4, 4), false},
		{"dupelim", workload.DupElim(2, 4_000, 2, 5), false},
		{"range", workload.RangePartitioned(5, 4_000, 1_000, 6), false},
		{"sorted", each(workload.Uniform(3, 4_000, 1_500, 7), func(p []tuple.Tuple) { slices.SortFunc(p, byKey) }), true},
		{"onegroup", workload.Uniform(6, 3_000, 1, 8), false},
		{"distinct", workload.Uniform(7, 3_000, 3_000, 9), false},
		{"negative", vals(workload.Uniform(1, 4_000, 300, 10), func(v int64) int64 { return 400 - v*1e12 }), false},
		// Every group's SUM crosses MaxInt64 and must wrap alike everywhere.
		{"sumwrap", vals(workload.Uniform(4, 4_000, 60, 11), func(v int64) int64 { return v + math.MaxInt64/4*3 }), true},
		{"onenode", oneNode, true},
		{"empty", &workload.Relation{PerNode: make([][]tuple.Tuple, 3)}, false},
	}
	rng := rand.New(rand.NewSource(20261020))
	for i := 0; i < 4; i++ {
		nodes, rows := 2+rng.Intn(7), int64(300+rng.Intn(2_700))
		g, seed := 1+rng.Int63n(rows), rng.Int63()
		rel := workload.Uniform(nodes, rows, g, seed)
		switch i % 3 {
		case 1:
			rel = workload.Zipf(nodes, rows, g, 1.1+rng.Float64(), seed)
		case 2:
			rel = workload.InputSkew(nodes, rows, g, 1+rng.Float64()*3, seed)
		}
		all = append(all, scenario{fmt.Sprintf("random%d", i), rel, false})
	}
	if short {
		all = slices.DeleteFunc(all, func(sc scenario) bool { return !sc.short })
	}
	return all
}

// fold is the sequential answer, written out rather than through
// tuple.AggState's Update and Merge, which every substrate shares. SUM wraps
// as int64 addition does.
func fold(rel *workload.Relation) groups {
	out := groups{}
	for _, part := range rel.PerNode {
		for _, t := range part {
			s, ok := out[t.Key]
			if !ok {
				s = tuple.AggState{Min: t.Val, Max: t.Val}
			}
			s.Count++
			s.Sum += t.Val
			s.Min, s.Max = min(s.Min, t.Val), max(s.Max, t.Val)
			out[t.Key] = s
		}
	}
	return out
}

// same fails the test at the first key, in ascending order, where got and
// want differ, naming the case: workload, substrate, algorithm and config.
func same(t *testing.T, ctx string, want, got groups) {
	t.Helper()
	keys := make([]tuple.Key, 0, len(want)+len(got))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	show := func(s tuple.AggState, ok bool) string {
		if !ok {
			return "no group"
		}
		return s.String()
	}
	for _, k := range keys {
		gs, gok := got[k]
		ws, wok := want[k]
		if gs != ws || gok != wok {
			t.Fatalf("%s: key %d: got %s, want %s", ctx, k, show(gs, gok), show(ws, wok))
		}
	}
}

// bounds are the table bounds of case i of a workload with g groups: none,
// a tiny one (1–16), about half the groups, and more than the groups.
func bounds(i int, g int) []int {
	return []int{0, 1 + i%16, g/2 + 1, g + g/4 + 8}
}

func TestOracle(t *testing.T) {
	legs := []struct {
		name string
		run  func(t *testing.T, i int, sc scenario, want groups)
	}{{"sim", simLeg}, {"live", liveLeg}, {"dist", distLeg}, {"sql", sqlLeg}}
	scs := scenarios(testing.Short())
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			t.Parallel()
			for i, sc := range scs {
				if !t.Run(sc.name, func(t *testing.T) { leg.run(t, i, sc, fold(sc.rel)) }) {
					break // one failing workload is enough, and a hung one costs a minute
				}
			}
		})
	}
}

// simLeg runs all nine simulator algorithms on the fast network with a
// tiny memory M (down to 1) and on the shared-bus Ethernet with M about
// half the groups. core.Run checks its answer itself, and its error names
// the first wrong group.
func simLeg(t *testing.T, i int, sc scenario, want groups) {
	for _, prm := range []params.Params{params.Default(), params.Implementation()} {
		prm.N = len(sc.rel.PerNode)
		prm.HashEntries = bounds(i, len(want))[1+int(prm.Network)]
		for _, alg := range core.All() {
			res, err := core.Run(prm, sc.rel, alg, core.Options{Seed: int64(i + 1)})
			ctx := fmt.Sprintf("%s/sim/%v: %v network, M=%d", sc.name, alg, prm.Network, prm.HashEntries)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			same(t, ctx, want, res.Groups)
		}
	}
}

// liveLeg runs all six live algorithms at every bound, on the workload's
// own placement and on its rows cut into 1–8 contiguous shares, with
// batches of 1 or 3, 7, 64 and the default.
func liveLeg(t *testing.T, i int, sc scenario, want groups) {
	flat := slices.Concat(sc.rel.PerNode...)
	for j, bound := range bounds(i, len(want)) {
		cfg := live.Config{Workers: 1 + (i+j)%8, TableEntries: bound, Batch: []int{0, 1 + 2*(i%2), 7, 64}[j]}
		for _, alg := range live.Algorithms() {
			ctx := fmt.Sprintf("%s/live/%v: %d workers, bound %d, batch %d, placed=%v", sc.name, alg, cfg.Workers, bound, cfg.Batch, j%2 == 0)
			var res *live.Result
			var err error
			if j%2 == 0 {
				res, err = live.AggregatePartitioned(cfg, sc.rel.PerNode, alg)
			} else {
				res, err = live.Aggregate(cfg, flat, alg)
			}
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			same(t, ctx, want, res.Groups)
		}
	}
}

// distLeg runs the four cluster algorithms over loopback TCP, one node per
// partition, fail-fast and tolerant, at every bound but the one above the
// groups, which switches no more than no bound does. A run that has not
// returned within a minute (a healthy one takes milliseconds) fails the
// test, naming its case, rather than hanging until go test's timeout.
func distLeg(t *testing.T, i int, sc scenario, want groups) {
	for _, tolerate := range []bool{false, true} {
		for j, bound := range bounds(i, len(want))[:3] {
			for _, alg := range []dist.Algorithm{dist.TwoPhase, dist.Repartitioning, dist.AdaptiveTwoPhase, dist.AdaptiveRepartitioning} {
				cfg := dist.Config{Algorithm: alg, TableEntries: bound, Batch: []int{0, 7, 256}[j], Tolerate: tolerate,
					IOTimeout: 5 * time.Second, HeartbeatEvery: 50 * time.Millisecond, SuspectAfter: time.Second, DeadAfter: 3 * time.Second}
				ctx := fmt.Sprintf("%s/dist/%v: tolerate=%v, bound %d, batch %d", sc.name, alg, tolerate, bound, cfg.Batch)
				var res *dist.ClusterResult
				var err error
				done := make(chan struct{})
				go func() { res, err = dist.RunConfigured(sc.rel.PerNode, cfg); close(done) }()
				select {
				case <-done:
				case <-time.After(time.Minute):
					t.Fatalf("%s: no result after a minute", ctx)
				}
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				same(t, ctx, want, res.Groups)
			}
		}
	}
}

// loCells are the second group-by column's cells: key k is the row
// (k>>2, loCells[k&3]), so NULL and "" keys are groups of their own.
var loCells = []sqlagg.Value{sqlagg.NullValue, sqlagg.StrVal(""), sqlagg.StrVal("a"), sqlagg.StrVal("b")}

// sqlLeg runs COUNT, SUM, MIN and MAX grouped by two columns, one of them
// a string column holding NULL and "", through all six live algorithms.
func sqlLeg(t *testing.T, i int, sc scenario, want groups) {
	tbl := &sqlagg.Table{Schema: sqlagg.Schema{Cols: []sqlagg.Column{
		{Name: "hi", Type: sqlagg.Int64}, {Name: "lo", Type: sqlagg.String}, {Name: "v", Type: sqlagg.Int64}}}}
	for _, part := range sc.rel.PerNode {
		for _, tp := range part {
			tbl.Rows = append(tbl.Rows, sqlagg.Row{sqlagg.IntVal(int64(tp.Key >> 2)), loCells[tp.Key&3], sqlagg.IntVal(tp.Val)})
		}
	}
	q := sqlagg.Query{GroupBy: []string{"hi", "lo"}, Aggs: []sqlagg.Agg{
		{Func: sqlagg.Count, Col: "v"}, {Func: sqlagg.Sum, Col: "v"}, {Func: sqlagg.Min, Col: "v"}, {Func: sqlagg.Max, Col: "v"}}}
	for j, alg := range live.Algorithms() {
		cfg := live.Config{Workers: 1 + (i+j)%8, TableEntries: bounds(i, len(want))[j%4]}
		ctx := fmt.Sprintf("%s/sql/%v: %d workers, bound %d", sc.name, alg, cfg.Workers, cfg.TableEntries)
		res, err := sqlagg.Execute(tbl, q, cfg, alg)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		got := groups{}
		for _, r := range res.Rows {
			got[tuple.Key(r[0].Int)<<2|tuple.Key(slices.Index(loCells, r[1]))] = tuple.AggState{Count: r[2].Int, Sum: r[3].Int, Min: r[4].Int, Max: r[5].Int}
		}
		if len(got) != len(res.Rows) {
			t.Fatalf("%s: %d rows for %d groups", ctx, len(res.Rows), len(got))
		}
		same(t, ctx, want, got)
	}
}
