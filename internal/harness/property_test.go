package harness

import (
	"math"
	"math/rand"
	"testing"

	"parallelagg/internal/core"
	"parallelagg/internal/live"
	"parallelagg/internal/params"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
	"parallelagg/sqlagg"
)

// propOracle is the single-threaded in-memory reference fold, written
// here independently of workload.Relation.Reference so the property
// test does not share its oracle with the code under test.
func propOracle(rel *workload.Relation) map[tuple.Key]tuple.AggState {
	out := make(map[tuple.Key]tuple.AggState)
	for _, part := range rel.PerNode {
		for _, t := range part {
			s, ok := out[t.Key]
			if !ok {
				out[t.Key] = tuple.NewState(t.Val)
				continue
			}
			s.Update(t.Val)
			out[t.Key] = s
		}
	}
	return out
}

// propWorkload draws one random workload: node count, size, group
// count, and distribution shape (uniform, input-skewed, output-skewed,
// Zipf) all vary.
func propWorkload(rng *rand.Rand) (*workload.Relation, params.Params) {
	nodes := []int{2, 3, 4, 8}[rng.Intn(4)]
	tuples := int64(500 + rng.Intn(2500))
	groups := 1 + rng.Int63n(tuples/2)
	seed := rng.Int63()

	var rel *workload.Relation
	switch rng.Intn(4) {
	case 0:
		rel = workload.Uniform(nodes, tuples, groups, seed)
	case 1:
		rel = workload.InputSkew(nodes, tuples, groups, 1+rng.Float64()*3, seed)
	case 2:
		rel = workload.OutputSkew(nodes, tuples, groups, seed)
	default:
		rel = workload.Zipf(nodes, tuples, groups, 1.1+rng.Float64(), seed)
	}

	prm := params.Implementation()
	prm.N = nodes
	prm.Tuples = rel.Tuples()
	// A small memory budget forces the interesting paths: spill passes,
	// the A-2P switch, the ARep fallback.
	prm.HashEntries = 8 << rng.Intn(8)
	return rel, prm
}

func sameGroups(t *testing.T, label string, got, want map[tuple.Key]tuple.AggState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, oracle has %d", label, len(got), len(want))
	}
	for k, ws := range want {
		gs, ok := got[k]
		if !ok {
			t.Fatalf("%s: group %d missing", label, k)
		}
		if gs != ws {
			t.Fatalf("%s: group %d state %+v, oracle %+v", label, k, gs, ws)
		}
	}
}

// TestPropertySimMatchesOracle drives ~50 seeded random workloads —
// varying selectivity, skew shape and node count — through all six
// simulator algorithms and checks every result against the independent
// sequential oracle. This is the paper's exactness claim ("every
// algorithm produces the exact aggregation result") as a property test.
// One more workload shifts every value by 3/4 of MaxInt64, so every
// group's SUM crosses MaxInt64 and must wrap alike on every algorithm.
func TestPropertySimMatchesOracle(t *testing.T) {
	algs := []core.Algorithm{core.C2P, core.TwoPhase, core.Rep, core.Samp, core.A2P, core.ARep}
	rng := rand.New(rand.NewSource(20260805))
	const cases = 50
	for c := 0; c <= cases; c++ {
		rel, prm := propWorkload(rng)
		if c == cases {
			for _, part := range rel.PerNode {
				for i := range part {
					part[i].Val += math.MaxInt64 / 4 * 3
				}
			}
		}
		want := propOracle(rel)
		optSeed := rng.Int63()
		for _, alg := range algs {
			res, err := core.Run(prm, rel, alg, core.Options{Seed: optSeed})
			if err != nil {
				t.Fatalf("case %d (%s, N=%d, T=%d, G=%d, M=%d): %v",
					c, alg, prm.N, rel.Tuples(), rel.Groups, prm.HashEntries, err)
			}
			sameGroups(t, rel.Name+"/"+alg.String(), res.Groups, want)
		}
	}
}

// TestPropertySQLMatchesOracle runs the same seeded random workloads
// through the SQL layer (and therefore the live goroutine engine) and
// checks COUNT/SUM/MIN/MAX per group against the oracle.
func TestPropertySQLMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(915))
	const cases = 50
	for c := 0; c < cases; c++ {
		rel, _ := propWorkload(rng)
		want := propOracle(rel)

		tbl := &sqlagg.Table{Schema: sqlagg.Schema{Cols: []sqlagg.Column{
			{Name: "k", Type: sqlagg.Int64},
			{Name: "v", Type: sqlagg.Int64},
		}}}
		for _, part := range rel.PerNode {
			for _, tp := range part {
				tbl.Rows = append(tbl.Rows, sqlagg.Row{sqlagg.IntVal(int64(tp.Key)), sqlagg.IntVal(tp.Val)})
			}
		}
		alg := live.Algorithms()[c%len(live.Algorithms())]
		res, err := sqlagg.Execute(tbl, sqlagg.Query{
			GroupBy: []string{"k"},
			Aggs: []sqlagg.Agg{
				{Func: sqlagg.Count, Col: "v"},
				{Func: sqlagg.Sum, Col: "v"},
				{Func: sqlagg.Min, Col: "v"},
				{Func: sqlagg.Max, Col: "v"},
			},
		}, live.Config{Workers: 4, TableEntries: 64}, alg)
		if err != nil {
			t.Fatalf("case %d (%s): %v", c, alg, err)
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("case %d (%s): %d result rows, oracle has %d groups", c, alg, len(res.Rows), len(want))
		}
		for _, row := range res.Rows {
			k := tuple.Key(row[0].Int)
			ws, ok := want[k]
			if !ok {
				t.Fatalf("case %d (%s): unexpected group %d", c, alg, k)
			}
			if row[1].Int != ws.Count || row[2].Int != ws.Sum || row[3].Int != ws.Min || row[4].Int != ws.Max {
				t.Fatalf("case %d (%s): group %d = count %d sum %d min %d max %d, oracle %+v",
					c, alg, k, row[1].Int, row[2].Int, row[3].Int, row[4].Int, ws)
			}
		}
	}
}
