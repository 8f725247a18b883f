package main

import (
	"fmt"
	"math/rand"
	"time"

	"parallelagg/internal/dist"
	"parallelagg/internal/live"
	"parallelagg/internal/obs"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
	wlgen "parallelagg/internal/workload"
	"parallelagg/sqlagg"
)

// tableEntries is the per-worker table bound every bounded table in the
// benchmark uses: small enough that the many-groups workloads hit it at
// once, large enough that the few-groups workloads never do.
const tableEntries = 16384

type kind int

const (
	kindLive kind = iota
	kindDist
	kindSQL
)

// call names the public function a workload of this kind times; it is the
// name of the runner's span around that call.
func (k kind) call() string {
	return [...]string{"live.AggregatePartitioned", "dist.RunConfigured", "sqlagg.Execute"}[k]
}

// workload is one frozen input shape. Rows and Groups are constants of the
// benchmark: identical on every commit, divided by the -smoke scale only.
type workload struct {
	Name string
	Why  string
	Kind kind
	Rows int64
	// Groups is the generator's group parameter (ignored by sql_groupby,
	// whose six groups come from the flag columns).
	Groups int64
	// Alg is the live algorithm the workload runs end to end.
	Alg live.Algorithm
	gen func(p int, rows, groups, seed int64) *wlgen.Relation
}

var workloads = []*workload{
	{Name: "live_few", Kind: kindLive, Rows: 1 << 22, Groups: 1024, Alg: live.AdaptiveTwoPhase,
		Why: "scan-and-fold bound: 1,024 groups never fill the table, so hash, batch-append and aggtable fold kernels do the work",
		gen: wlgen.Uniform},
	{Name: "live_many", Kind: kindLive, Rows: 1 << 19, Groups: 1 << 18, Alg: live.AdaptiveTwoPhase,
		Why: "selectivity 0.5: every worker's table fills at once and switches, so exchange, merge growth, drain sort and result assembly dominate",
		gen: wlgen.Uniform},
	{Name: "live_skew", Kind: kindLive, Rows: 1 << 20, Groups: 1 << 17, Alg: live.AdaptiveTwoPhase,
		Why: "paper section 6 output skew: half the workers hold one group and stay in 2P, half switch; the slowest worker sets the time",
		gen: func(p int, rows, groups, seed int64) *wlgen.Relation {
			return wlgen.OutputSkew(p, rows, groups+int64(p/2), seed)
		}},
	{Name: "shared_hot", Kind: kindLive, Rows: 1 << 22, Groups: 8192, Alg: live.Shared,
		Why: "Zipf s=1.2 over 8,192 keys on one striped table: stripe-lock contention with no bound refusals and no exchange",
		gen: func(p int, rows, groups, seed int64) *wlgen.Relation {
			return wlgen.Zipf(p, rows, groups, 1.2, seed)
		}},
	{Name: "dist_loop", Kind: kindDist, Rows: 1 << 20, Groups: 200000, Alg: live.AdaptiveTwoPhase,
		Why: "the only workload that crosses sockets: frame codec, TCP loopback, builtin-map folds and cluster formation per query",
		gen: wlgen.Uniform},
	{Name: "sql_groupby", Kind: kindSQL, Rows: 1 << 18, Alg: live.AdaptiveTwoPhase,
		Why: "query-layer bound: key-dictionary encoding and row-to-tuple projection dominate, the engine sees six groups"},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// digest condenses a query result to what the check compares: the group
// count and an order-independent sum of one mixed word per group over
// (key, count, sum, min, max). Computing it allocates nothing, so it can
// sit between timed queries without disturbing the allocation metrics.
type digest struct {
	Groups int
	Sum    uint64
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (d *digest) add(key uint64, a, b, c, e int64) {
	h := mix(key)
	h = mix(h ^ uint64(a))
	h = mix(h ^ uint64(b))
	h = mix(h ^ uint64(c))
	h = mix(h ^ uint64(e))
	d.Groups++
	d.Sum += h
}

func digestGroups(groups map[tuple.Key]tuple.AggState) digest {
	var d digest
	for k, s := range groups {
		d.add(uint64(k), s.Count, s.Sum, s.Min, s.Max)
	}
	return d
}

// fnv1a hashes the two group-by strings of an sql_groupby row without
// building the concatenation.
func fnv1a(a, b string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(a); i++ {
		h = (h ^ uint64(a[i])) * 1099511628211
	}
	h = (h ^ '|') * 1099511628211
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}

// result is what one query returned, reduced to what the runner reads.
type result interface{ digest() digest }

type liveResult struct{ *live.Result }

func (r liveResult) digest() digest { return digestGroups(r.Groups) }

type distResult struct{ *dist.ClusterResult }

func (r distResult) digest() digest { return digestGroups(r.Groups) }

// sqlResult rows are (returnflag, linestatus, sum_quantity, avg_price, count).
type sqlResult struct{ *sqlagg.Result }

func (r sqlResult) digest() digest {
	var d digest
	for _, row := range r.Rows {
		d.add(fnv1a(row[0].Str, row[1].Str), row[2].Int, row[3].Int, row[4].Int, 0)
	}
	return d
}

// instance is one workload made concrete for a seed: generated inputs,
// the oracle's digest, and the query closure. The engines see only the
// generated slices.
type instance struct {
	w      *workload
	p      int
	rows   int64 // input rows one query processes
	groups int   // exact result groups
	oracle digest
	genS   float64 // generator call inside set-up

	parts [][]tuple.Tuple // kindLive, kindDist
	table *sqlagg.Table   // kindSQL

	// query runs the workload's one query. tr and reg are nil except in
	// the traced pass.
	query func(tr *trace.Tracer, reg *obs.Registry) (result, error)
}

func liveConfig(p int, tr *trace.Tracer, reg *obs.Registry) live.Config {
	return live.Config{Workers: p, TableEntries: tableEntries, Tracer: tr, Obs: reg}
}

// liveQuery runs alg over parts: the line-ups reuse it with every
// algorithm on the workload's input.
func liveQuery(p int, parts [][]tuple.Tuple, alg live.Algorithm) func(*trace.Tracer, *obs.Registry) (result, error) {
	return func(tr *trace.Tracer, reg *obs.Registry) (result, error) {
		res, err := live.AggregatePartitioned(liveConfig(p, tr, reg), parts, alg)
		if err != nil {
			return nil, err
		}
		return liveResult{res}, nil
	}
}

func distQuery(parts [][]tuple.Tuple, cfg dist.Config) func(*trace.Tracer, *obs.Registry) (result, error) {
	return func(tr *trace.Tracer, reg *obs.Registry) (result, error) {
		c := cfg
		c.TableEntries = tableEntries
		c.Tracer, c.Obs = tr, reg
		res, err := dist.RunConfigured(parts, c)
		if err != nil {
			return nil, err
		}
		return distResult{res}, nil
	}
}

var sqlQuery = sqlagg.Query{
	GroupBy: []string{"returnflag", "linestatus"},
	Aggs: []sqlagg.Agg{
		{Func: sqlagg.Sum, Col: "quantity"},
		{Func: sqlagg.Avg, Col: "price"},
		{Func: sqlagg.CountStar},
	},
}

// build generates the workload's inputs from seed and computes the oracle
// with a plain sequential fold. scale divides the row and group counts
// (-smoke); 1 is the benchmark proper.
func (w *workload) build(p int, seed int64, scale int64) *instance {
	in := &instance{w: w, p: p, rows: w.Rows / scale}
	if w.Kind == kindSQL {
		start := time.Now()
		in.table = lineitem(in.rows, seed)
		in.genS = time.Since(start).Seconds()
		in.oracle = lineitemOracle(in.table)
		in.groups = in.oracle.Groups
		in.query = func(tr *trace.Tracer, reg *obs.Registry) (result, error) {
			res, err := sqlagg.Execute(in.table, sqlQuery, liveConfig(p, tr, reg), w.Alg)
			if err != nil {
				return nil, err
			}
			return sqlResult{res}, nil
		}
		return in
	}
	start := time.Now()
	rel := w.gen(p, in.rows, max(w.Groups/scale, 1), seed)
	in.genS = time.Since(start).Seconds()
	in.parts = rel.PerNode
	in.oracle = digestGroups(rel.Reference())
	in.groups = in.oracle.Groups
	if w.Kind == kindDist {
		in.query = distQuery(in.parts, dist.Config{Algorithm: dist.AdaptiveTwoPhase})
	} else {
		in.query = liveQuery(p, in.parts, w.Alg)
	}
	return in
}

// lineitem generates the sql_groupby table: two string flag columns (3×2
// values, so six groups) and two integer measures.
func lineitem(rows, seed int64) *sqlagg.Table {
	rng := rand.New(rand.NewSource(seed))
	flags := []string{"A", "N", "R"}
	status := []string{"F", "O"}
	t := &sqlagg.Table{Schema: sqlagg.Schema{Cols: []sqlagg.Column{
		{Name: "returnflag", Type: sqlagg.String},
		{Name: "linestatus", Type: sqlagg.String},
		{Name: "quantity", Type: sqlagg.Int64},
		{Name: "price", Type: sqlagg.Int64},
	}}}
	t.Rows = make([]sqlagg.Row, rows)
	for i := range t.Rows {
		// The first six rows cover every flag pair, so the group count
		// does not depend on the seed.
		f, s := i%3, (i/3)%2
		if i >= 6 {
			f, s = rng.Intn(3), rng.Intn(2)
		}
		t.Rows[i] = sqlagg.Row{
			sqlagg.StrVal(flags[f]), sqlagg.StrVal(status[s]),
			sqlagg.IntVal(1 + rng.Int63n(50)), sqlagg.IntVal(900 + rng.Int63n(100000)),
		}
	}
	return t
}

// lineitemOracle answers sqlQuery with a direct loop over the rows.
func lineitemOracle(t *sqlagg.Table) digest {
	type acc struct{ qty, price, n int64 }
	groups := make(map[[2]string]*acc)
	for _, r := range t.Rows {
		k := [2]string{r[0].Str, r[1].Str}
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
		}
		a.qty += r[2].Int
		a.price += r[3].Int
		a.n++
	}
	var d digest
	for k, a := range groups {
		d.add(fnv1a(k[0], k[1]), a.qty, a.price/a.n, a.n, 0)
	}
	return d
}

func (d digest) String() string { return fmt.Sprintf("%d groups, digest %016x", d.Groups, d.Sum) }
