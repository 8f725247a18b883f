package query

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"parallelagg/internal/live"
)

// lineitemTable is the shape of the benchmark spine's sql_groupby table:
// two string flag columns (3×2 values, six groups) and two int measures.
func lineitemTable(rows int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	flags := []string{"A", "N", "R"}
	status := []string{"F", "O"}
	t := &Table{Schema: Schema{Cols: []Column{
		{Name: "returnflag", Type: String},
		{Name: "linestatus", Type: String},
		{Name: "quantity", Type: Int64},
		{Name: "price", Type: Int64},
	}}}
	t.Rows = make([]Row, rows)
	for i := range t.Rows {
		f, s := i%3, (i/3)%2 // the first six rows cover every group
		if i >= 6 {
			f, s = rng.Intn(3), rng.Intn(2)
		}
		t.Rows[i] = Row{
			StrVal(flags[f]), StrVal(status[s]),
			IntVal(1 + rng.Int63n(50)), IntVal(900 + rng.Int63n(100000)),
		}
	}
	return t
}

// lineitemQuery is the spine's sql_groupby query.
var lineitemQuery = Query{
	GroupBy: []string{"returnflag", "linestatus"},
	Aggs: []Agg{
		{Func: Sum, Col: "quantity"},
		{Func: Avg, Col: "price"},
		{Func: CountStar},
	},
}

// benchConfig is the benchmark spine's engine configuration: two workers,
// each scan table bounded at 16,384 entries.
var benchConfig = live.Config{Workers: 2, TableEntries: 16384}

func benchExecute(b *testing.B, tab *Table, q Query, wantGroups int) {
	b.Helper()
	b.ReportAllocs()
	// A warm-up query fills the buffer and slab pools as the spine's
	// warm-up does; testing's collection before each run may have emptied them.
	if _, err := Execute(tab, q, benchConfig, live.AdaptiveTwoPhase); err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Execute(tab, q, benchConfig, live.AdaptiveTwoPhase)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != wantGroups {
			b.Fatalf("%d groups, want %d", len(res.Rows), wantGroups)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	rows := float64(b.N) * float64(len(tab.Rows))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/rows, "B/row")
}

// BenchmarkExecuteLineitem is the spine's sql_groupby query without the
// spine: 2^18 wide rows, six groups, so per-row key handling is all there
// is to see. random is the spine's table, each row's flag pair drawn at
// random; copied is random with every string on a backing of its own, so
// no key compare is settled by equal data pointers and each reads the
// bytes; sorted holds the same rows in six runs, one per flag pair, where
// every branch on a row's key goes the way it went for the row before.
func BenchmarkExecuteLineitem(b *testing.B) {
	tab := lineitemTable(1<<18, 1)
	b.Run("random", func(b *testing.B) { benchExecute(b, tab, lineitemQuery, 6) })
	copied := &Table{Schema: tab.Schema, Rows: make([]Row, len(tab.Rows))}
	for i, r := range tab.Rows {
		copied.Rows[i] = slices.Clone(r)
		for j := range r {
			copied.Rows[i][j].Str = strings.Clone(r[j].Str)
		}
	}
	b.Run("copied", func(b *testing.B) { benchExecute(b, copied, lineitemQuery, 6) })
	sorted := &Table{Schema: tab.Schema, Rows: slices.Clone(tab.Rows)}
	slices.SortStableFunc(sorted.Rows, func(x, y Row) int {
		return cmp.Or(cmpValue(x[0], y[0]), cmpValue(x[1], y[1]))
	})
	for i, r := range sorted.Rows { // rows laid out in their new order, as random's are in theirs
		sorted.Rows[i] = slices.Clone(r)
	}
	b.Run("sorted", func(b *testing.B) { benchExecute(b, sorted, lineitemQuery, 6) })
}

// BenchmarkExecuteLowCard has two 8-value flag columns, 64 groups drawn
// in random order: as many keys as the whole-key memo has entries, so
// most of its sets hold two or more keys and ask the second way, or evict.
func BenchmarkExecuteLowCard(b *testing.B) { benchFlagPairs(b, 8) }

// BenchmarkExecuteMidCard lies between: two 12-value flag columns, 144
// groups drawn in random order. That is more keys than the whole-key memo
// holds, and few enough cells for the cell memos to hit.
func BenchmarkExecuteMidCard(b *testing.B) { benchFlagPairs(b, 12) }

// benchFlagPairs groups 2^18 rows by two string columns of flags values
// each, every pair drawn at random; equal strings share their bytes.
func benchFlagPairs(b *testing.B, flags int) {
	const rows = 1 << 18
	rng := rand.New(rand.NewSource(1))
	names := make([]string, 2*flags)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "a", Type: String},
		{Name: "b", Type: String},
		{Name: "v", Type: Int64},
	}}}
	tab.Rows = make([]Row, rows)
	for i := range tab.Rows {
		x, y := i%flags, i/flags%flags // the first flags² rows cover every group
		if i >= flags*flags {
			x, y = rng.Intn(flags), rng.Intn(flags)
		}
		tab.Rows[i] = Row{StrVal(names[x]), StrVal(names[flags+y]), IntVal(rng.Int63n(1000))}
	}
	benchExecute(b, tab, Query{
		GroupBy: []string{"a", "b"},
		Aggs:    []Agg{{Func: CountStar}, {Func: Sum, Col: "v"}},
	}, flags*flags)
}

// BenchmarkExecuteHighCard is the other end: an int × string group-by
// with ~130 k groups in 2^18 rows, where dictionary growth, the group
// sort and result assembly dominate.
func BenchmarkExecuteHighCard(b *testing.B) {
	const rows, regions, customers = 1 << 18, 512, 320
	rng := rand.New(rand.NewSource(1))
	names := make([]string, customers)
	for i := range names {
		names[i] = "cust-" + strconv.Itoa(i)
	}
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "region", Type: Int64},
		{Name: "customer", Type: String},
		{Name: "amount", Type: Int64},
	}}}
	tab.Rows = make([]Row, rows)
	groups := make(map[[2]int]struct{})
	for i := range tab.Rows {
		// 1.6 draws per possible pair: about 80 % of them occur.
		r, c := rng.Intn(regions), rng.Intn(customers)
		groups[[2]int{r, c}] = struct{}{}
		tab.Rows[i] = Row{IntVal(int64(r)), StrVal(names[c]), IntVal(rng.Int63n(1000))}
	}
	benchExecute(b, tab, Query{
		GroupBy: []string{"region", "customer"},
		Aggs:    []Agg{{Func: CountStar}, {Func: Sum, Col: "amount"}},
	}, len(groups))
}
