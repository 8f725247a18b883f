package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"parallelagg/internal/live"
)

// lineitems builds a small lineitem-like table:
// (returnflag string, linestatus string, quantity int, price int).
func lineitems() *Table {
	t := &Table{Schema: Schema{Cols: []Column{
		{Name: "returnflag", Type: String},
		{Name: "linestatus", Type: String},
		{Name: "quantity", Type: Int64},
		{Name: "price", Type: Int64},
	}}}
	add := func(rf, ls string, qty, price Value) {
		if err := t.Append(Row{StrVal(rf), StrVal(ls), qty, price}); err != nil {
			panic(err)
		}
	}
	add("A", "F", IntVal(10), IntVal(100))
	add("A", "F", IntVal(20), IntVal(200))
	add("A", "O", IntVal(5), IntVal(50))
	add("N", "F", IntVal(7), NullValue) // NULL price
	add("N", "F", NullValue, IntVal(70))
	add("R", "O", IntVal(1), IntVal(10))
	return t
}

func exec(t *testing.T, tab *Table, q Query) *Result {
	t.Helper()
	res, err := Execute(tab, q, live.Config{Workers: 3}, live.AdaptiveTwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGroupByTwoColumnsAllAggregates(t *testing.T) {
	res := exec(t, lineitems(), Query{
		GroupBy: []string{"returnflag", "linestatus"},
		Aggs: []Agg{
			{Func: CountStar},
			{Func: Count, Col: "quantity"},
			{Func: Sum, Col: "quantity"},
			{Func: Avg, Col: "quantity"},
			{Func: Min, Col: "quantity"},
			{Func: Max, Col: "quantity"},
			{Func: Sum, Col: "price"},
		},
	})
	if len(res.Rows) != 4 {
		t.Fatalf("got %d groups, want 4:\n%v", len(res.Rows), res.Rows)
	}
	// Groups sort lexicographically: (A,F), (A,O), (N,F), (R,O).
	af := res.Rows[0]
	if af[0].Str != "A" || af[1].Str != "F" {
		t.Fatalf("first group = %v", af)
	}
	// (A,F): 2 rows, count(qty)=2, sum=30, avg=15, min=10, max=20, sum(price)=300.
	want := []int64{2, 2, 30, 15, 10, 20, 300}
	for i, w := range want {
		if got := af[2+i]; got.Null || got.Int != w {
			t.Errorf("(A,F) agg %d = %v, want %d", i, got, w)
		}
	}
	// (N,F): 2 rows, count(qty)=1 (one NULL), sum(qty)=7, sum(price)=70.
	nf := res.Rows[2]
	if nf[0].Str != "N" {
		t.Fatalf("third group = %v", nf)
	}
	if nf[2].Int != 2 || nf[3].Int != 1 || nf[4].Int != 7 || nf[8].Int != 70 {
		t.Errorf("(N,F) = %v", nf)
	}
}

func TestWherePushdown(t *testing.T) {
	tab := lineitems()
	qtyIdx := tab.Schema.Index("quantity")
	res := exec(t, tab, Query{
		GroupBy: []string{"returnflag"},
		Aggs:    []Agg{{Func: CountStar}},
		Where: func(r Row) bool {
			return !r[qtyIdx].Null && r[qtyIdx].Int >= 7
		},
	})
	// Rows surviving WHERE: (A,10), (A,20), (N,7) → groups A:2, N:1.
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "A" || res.Rows[0][1].Int != 2 {
		t.Errorf("A row = %v", res.Rows[0])
	}
	if res.Rows[1][0].Str != "N" || res.Rows[1][1].Int != 1 {
		t.Errorf("N row = %v", res.Rows[1])
	}
}

func TestHavingAppliedAfterAggregation(t *testing.T) {
	res := exec(t, lineitems(), Query{
		GroupBy: []string{"returnflag"},
		Aggs:    []Agg{{Func: Sum, Col: "quantity", As: "total"}},
		Having: func(r Row) bool {
			return !r[1].Null && r[1].Int > 10
		},
	})
	// Sums: A=35, N=7, R=1 → only A survives.
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "A" || res.Rows[0][1].Int != 35 {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Schema.Cols[1].Name != "total" {
		t.Errorf("aggregate name = %q", res.Schema.Cols[1].Name)
	}
}

func TestAllNullGroupYieldsNullAggregate(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "k", Type: Int64}, {Name: "v", Type: Int64},
	}}}
	tab.Append(Row{IntVal(1), NullValue})
	tab.Append(Row{IntVal(1), NullValue})
	tab.Append(Row{IntVal(2), IntVal(9)})
	res := exec(t, tab, Query{
		GroupBy: []string{"k"},
		Aggs: []Agg{
			{Func: Sum, Col: "v"},
			{Func: Count, Col: "v"},
			{Func: CountStar},
		},
	})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	g1 := res.Rows[0]
	if !g1[1].Null {
		t.Errorf("SUM of all-NULL group = %v, want NULL", g1[1])
	}
	if g1[2].Null || g1[2].Int != 0 {
		t.Errorf("COUNT of all-NULL group = %v, want 0", g1[2])
	}
	if g1[3].Int != 2 {
		t.Errorf("COUNT(*) = %v, want 2", g1[3])
	}
}

func TestScalarAggregateNoGroupBy(t *testing.T) {
	tab := lineitems()
	res := exec(t, tab, Query{
		Aggs: []Agg{{Func: Sum, Col: "quantity"}, {Func: CountStar}},
	})
	if len(res.Rows) != 1 {
		t.Fatalf("scalar aggregate returned %d rows", len(res.Rows))
	}
	if res.Rows[0][0].Int != 43 || res.Rows[0][1].Int != 6 {
		t.Errorf("row = %v", res.Rows[0])
	}
}

// A scalar aggregate is one row whatever the input, as in SQL: over no
// rows — a WHERE that rejects them all, or an empty table — COUNT and
// COUNT(*) are 0 and every other aggregate is NULL. It used to return no
// row at all. HAVING may still drop it.
func TestScalarAggregateOverNoRows(t *testing.T) {
	aggs := []Agg{
		{Func: CountStar}, {Func: Count, Col: "quantity"}, {Func: Sum, Col: "quantity"},
		{Func: Avg, Col: "quantity"}, {Func: Min, Col: "price"}, {Func: Max, Col: "price"},
		{Func: Count, Col: "price", Distinct: true}, {Func: Sum, Col: "price", Distinct: true},
	}
	want := Row{IntVal(0), IntVal(0), NullValue, NullValue, NullValue, NullValue, IntVal(0), NullValue}
	none := func(Row) bool { return false }
	for _, c := range []struct {
		name string
		tab  *Table
		q    Query
	}{
		{"WHERE keeps no row", lineitems(), Query{Aggs: aggs, Where: none}},
		{"empty table", &Table{Schema: lineitems().Schema}, Query{Aggs: aggs}},
	} {
		for _, alg := range live.Algorithms() {
			for _, w := range []int{1, 3} {
				res, err := Execute(c.tab, c.q, live.Config{Workers: w}, alg)
				if err != nil {
					t.Fatalf("%s, %v, %d workers: %v", c.name, alg, w, err)
				}
				if len(res.Rows) != 1 || !reflect.DeepEqual(res.Rows[0], want) {
					t.Errorf("%s, %v, %d workers: rows %v, want [%v]", c.name, alg, w, res.Rows, want)
				}
			}
		}
		q := c.q
		q.Having = func(r Row) bool { return r[0].Int > 0 }
		if res := exec(t, c.tab, q); len(res.Rows) != 0 {
			t.Errorf("%s: HAVING COUNT(*) > 0 kept %v", c.name, res.Rows)
		}
	}
}

func TestDuplicateElimination(t *testing.T) {
	// SELECT DISTINCT = GROUP BY with no aggregates.
	tab := &Table{Schema: Schema{Cols: []Column{{Name: "city", Type: String}}}}
	for _, c := range []string{"madison", "madison", "berkeley", "madison", "austin"} {
		tab.Append(Row{StrVal(c)})
	}
	res := exec(t, tab, Query{GroupBy: []string{"city"}})
	if len(res.Rows) != 3 {
		t.Fatalf("distinct rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "austin" || res.Rows[2][0].Str != "madison" {
		t.Errorf("order = %v", res.Rows)
	}
}

func TestNullGroupKey(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "k", Type: String}, {Name: "v", Type: Int64},
	}}}
	tab.Append(Row{NullValue, IntVal(1)})
	tab.Append(Row{NullValue, IntVal(2)})
	tab.Append(Row{StrVal("x"), IntVal(3)})
	res := exec(t, tab, Query{GroupBy: []string{"k"}, Aggs: []Agg{{Func: Sum, Col: "v"}}})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// NULL group sorts first and aggregates both NULL-keyed rows.
	if !res.Rows[0][0].Null || res.Rows[0][1].Int != 3 {
		t.Errorf("NULL group = %v", res.Rows[0])
	}
}

// tagged is the reference key: the injective tagged, length-prefixed
// string the dictionary used to build for every row.
func tagged(cells Row) string {
	var b strings.Builder
	for _, c := range cells {
		switch {
		case c.Null:
			b.WriteByte('n')
		case c.Str != "":
			fmt.Fprintf(&b, "s%d:%s", len(c.Str), c.Str)
		default:
			fmt.Fprintf(&b, "i%d", c.Int)
		}
		b.WriteByte(';')
	}
	return b.String()
}

// testKey is a groupKey and the table of the rows it has encoded.
type testKey struct {
	groupKey
	t Table
}

// newGroupKey returns a groupKey over cols whose memo of whole keys, with
// two or more columns, is never dropped, so every row asks it.
func newGroupKey(cols []int) *testKey {
	g := &testKey{groupKey: groupKey{cols: cols, level: newKeyDicts(len(cols))}}
	if len(cols) > 1 {
		g.m, g.level[0].m.misses = g.level[0].m, math.MinInt/2
	}
	return g
}

// encodeRow appends r to g's rows and encodes it as the row pass does.
func (g *testKey) encodeRow(r Row) uint32 {
	if g.t.Rows = append(g.t.Rows, r); g.m != nil {
		return g.whole(&g.t, len(g.t.Rows)-1)
	}
	return g.levels(r)
}

func TestInjectiveKeyEncoding(t *testing.T) {
	// Pairs that naive separator-based or radix encodings confuse.
	g := newGroupKey([]int{0, 1})
	rows := []Row{
		{StrVal("a;b"), StrVal("c")},
		{StrVal("a"), StrVal("b;c")},
		{StrVal("a;"), StrVal("b;c")},
		{IntVal(12), IntVal(3)},
		{IntVal(1), IntVal(23)},
		{StrVal("1"), StrVal("23")},
		{NullValue, IntVal(0)},
		{IntVal(0), NullValue},
		{NullValue, NullValue},
		{IntVal(0), IntVal(0)},
		{IntVal(-1 << 63), IntVal(1<<63 - 1)},
		{IntVal(1<<63 - 1), IntVal(-1 << 63)},
	}
	for i, r := range rows {
		if id := g.encodeRow(r); id != uint32(i) {
			t.Fatalf("row %d %v got id %d: ids must be dense in first-seen order", i, r, id)
		}
	}
	for i, r := range rows {
		if id := g.encodeRow(r); id != uint32(i) {
			t.Errorf("encode not stable: row %d %v is now id %d", i, r, id)
		}
	}
	// StrVal("") and IntVal(0) are one Value, hence one key; NULL is not.
	// A non-empty Str decides alone, whatever Int rides along.
	one := newGroupKey([]int{0})
	if a, b, n := one.encodeRow(Row{StrVal("")}), one.encodeRow(Row{IntVal(0)}), one.encodeRow(Row{NullValue}); a != b || n == a {
		t.Errorf(`StrVal("") = %d, IntVal(0) = %d, NULL = %d`, a, b, n)
	}
	if a, b := one.encodeRow(Row{{Str: "x", Int: 1}}), one.encodeRow(Row{{Str: "x", Int: 2}}); a != b {
		t.Errorf("same Str, different Int: ids %d and %d", a, b)
	}
	if a, b := one.encodeRow(Row{{Null: true, Str: "x"}}), one.encodeRow(Row{NullValue}); a != b {
		t.Errorf("NULL carrying a Str is id %d, plain NULL %d", a, b)
	}

	// Three columns over more values than the linear front holds, NULL in
	// every position: same tagged string <=> same id, ids dense in
	// first-seen order, and decode returns the first cells seen.
	vals := []Value{NullValue, IntVal(0), StrVal("0"), StrVal("a"), StrVal("a;"), StrVal("n")}
	for i := int64(1); len(vals) < 2*frontLen+3; i++ {
		vals = append(vals, IntVal(i), StrVal(fmt.Sprint("s", i)))
	}
	g = newGroupKey([]int{0, 1, 2})
	ref := map[string]uint32{}
	for round := 0; round < 2; round++ {
		for _, a := range vals {
			for _, b := range vals {
				for _, c := range vals {
					r := Row{a, b, c}
					want, seen := ref[tagged(r)]
					if !seen {
						want = uint32(len(ref))
						ref[tagged(r)] = want
					}
					if got := g.encodeRow(r); got != want {
						t.Fatalf("round %d: %v encodes to %d, want %d", round, r, got, want)
					}
					back := make(Row, 3)
					g.decode(want, back)
					if tagged(back) != tagged(r) {
						t.Fatalf("id %d decodes to %v, was minted by %v", want, back, r)
					}
				}
			}
		}
	}
	if n := len(vals) * len(vals) * len(vals); len(ref) != n || len(g.level[2].pairs) != n {
		t.Errorf("%d reference keys, %d ids, want %d of each", len(ref), len(g.level[2].pairs), n)
	}
}

func TestValidationErrors(t *testing.T) {
	tab := lineitems()
	cases := []Query{
		{},
		{GroupBy: []string{"nope"}},
		{GroupBy: []string{"returnflag"}, Aggs: []Agg{{Func: Sum, Col: "nope"}}},
		{GroupBy: []string{"returnflag"}, Aggs: []Agg{{Func: Sum, Col: "linestatus"}}},
	}
	for i, q := range cases {
		if _, err := Execute(tab, q, live.Config{}, live.TwoPhase); err == nil {
			t.Errorf("case %d: bad query accepted", i)
		}
	}
}

func TestAppendArityChecked(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{{Name: "a", Type: Int64}}}}
	if err := tab.Append(Row{IntVal(1), IntVal(2)}); err == nil {
		t.Error("wrong-arity row accepted")
	}
}

// A string cell in an Int64 column used to be accepted and then
// aggregated as 0.
func TestAppendRejectsStringInIntColumn(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{{Name: "k", Type: String}, {Name: "v", Type: Int64}}}}
	err := tab.Append(Row{StrVal("x"), StrVal("7")})
	if err == nil || !strings.Contains(err.Error(), `Int64 column "v"`) {
		t.Errorf("string cell in Int64 column: err = %v", err)
	}
	if len(tab.Rows) != 0 {
		t.Errorf("rejected row was stored: %v", tab.Rows)
	}
	for _, r := range []Row{{StrVal("x"), IntVal(7)}, {NullValue, NullValue}} {
		if err := tab.Append(r); err != nil {
			t.Errorf("well-typed row %v rejected: %v", r, err)
		}
	}
}

// Rows can be assigned without Append; a row of the wrong arity used to
// panic with index-out-of-range inside Execute.
func TestExecuteRejectsWrongArityRow(t *testing.T) {
	for _, bad := range []Row{{StrVal("A")}, {StrVal("A"), StrVal("F"), IntVal(1), IntVal(2), IntVal(3)}} {
		tab := lineitems()
		tab.Rows = append(tab.Rows, bad)
		_, err := Execute(tab, Query{
			GroupBy: []string{"returnflag"},
			Aggs:    []Agg{{Func: Sum, Col: "price"}},
			Where:   func(r Row) bool { return !r[3].Null },
		}, live.Config{Workers: 2}, live.TwoPhase)
		want := fmt.Sprintf("query: row 6 has %d cells, schema has 4 columns", len(bad))
		if err == nil || err.Error() != want {
			t.Errorf("err = %v, want %q", err, want)
		}
	}
}

func TestResultColAccessor(t *testing.T) {
	res := exec(t, lineitems(), Query{
		GroupBy: []string{"returnflag"},
		Aggs:    []Agg{{Func: CountStar, As: "n"}},
	})
	col, err := res.Col("n")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range col {
		total += v.Int
	}
	if total != 6 {
		t.Errorf("counts sum to %d, want 6", total)
	}
	if _, err := res.Col("missing"); err == nil {
		t.Error("missing column accepted")
	}
}

// refLess is the documented result order, written without cmpValue: NULLs
// first, then by string, then by int.
func refLess(a, b Row) bool {
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x.Null && y.Null:
		case x.Null || y.Null:
			return x.Null
		case x.Str != y.Str:
			return x.Str < y.Str
		case x.Int != y.Int:
			return x.Int < y.Int
		}
	}
	return false
}

// Property: the query layer agrees with a direct map-based evaluation on
// randomQuery is the randomized differential's table and query for seed.
func randomQuery(seed int64) (*Table, Query) {
	schema := Schema{Cols: []Column{
		{Name: "s", Type: String}, {Name: "i", Type: Int64}, {Name: "j", Type: Int64},
		{Name: "v", Type: Int64}, {Name: "w", Type: Int64},
	}}
	aggs := []Agg{
		{Func: CountStar, As: "n"},
		{Func: Count, Col: "v"}, {Func: Sum, Col: "v", As: "sv"}, {Func: Avg, Col: "v"},
		{Func: Min, Col: "v"}, {Func: Max, Col: "v"},
		{Func: Count, Col: "v", Distinct: true}, {Func: Sum, Col: "v", Distinct: true},
		{Func: Sum, Col: "w"},
	}
	rng := rand.New(rand.NewSource(seed))
	cell := func(v Value) Value { // one cell in eight is NULL
		if rng.Intn(8) == 0 {
			return NullValue
		}
		return v
	}
	tab := &Table{Schema: schema}
	for n := rng.Intn(600); n > 0; n-- {
		if err := tab.Append(Row{
			cell(StrVal(fmt.Sprint("s", rng.Intn(2*frontLen)))),
			cell(IntVal(int64(rng.Intn(2*frontLen) - 3))),
			cell(IntVal(int64(rng.Intn(3)))),
			cell(IntVal(int64(rng.Intn(12) - 4))),
			cell(IntVal(int64(rng.Intn(100)))),
		}); err != nil {
			panic(err)
		}
	}
	q := Query{Aggs: aggs}
	for _, c := range rng.Perm(3)[:rng.Intn(4)] {
		q.GroupBy = append(q.GroupBy, schema.Cols[c].Name)
	}
	if floor := int64(rng.Intn(60)); rng.Intn(3) > 0 {
		q.Where = func(r Row) bool { return !r[4].Null && r[4].Int >= floor }
	}
	nkey := len(q.GroupBy)
	if rng.Intn(2) == 0 {
		q.Having = func(r Row) bool { return r[nkey].Int >= 2 } // n >= 2
	}
	if rng.Intn(3) > 0 {
		q.OrderBy, q.Desc, q.Limit = []string{"sv", "n", "s"}[rng.Intn(3)], rng.Intn(2) == 0, rng.Intn(20)
		if q.OrderBy == "s" && !slices.Contains(q.GroupBy, "s") {
			q.OrderBy = "sv"
		}
	}
	return tab, q
}

// 50 seeded random tables — string, int and NULL group-by cells in up to
// three columns (more distinct values than the dictionaries' linear front
// holds), WHERE, every aggregate including COUNT/SUM DISTINCT, HAVING,
// ORDER BY + LIMIT — for every live algorithm, with scan tables of four
// entries so every pass overflows and switches.
func TestQueryMatchesDirectEvaluationProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		tab, q := randomQuery(seed)
		schema, nkey := tab.Schema, len(q.GroupBy)

		// The oracle: one accumulator per tagged group key.
		type acc struct {
			cells                 Row
			n, cnt, sum, min, max int64
			distinct              map[int64]bool
			wcnt, wsum            int64
		}
		groups := map[string]*acc{}
		if nkey == 0 { // a scalar aggregate has its one group even if no row is kept
			groups[tagged(nil)] = &acc{distinct: map[int64]bool{}}
		}
		for _, r := range tab.Rows {
			if q.Where != nil && !q.Where(r) {
				continue
			}
			var cells Row
			for _, g := range q.GroupBy {
				cells = append(cells, r[schema.Index(g)])
			}
			a := groups[tagged(cells)]
			if a == nil {
				a = &acc{cells: cells, distinct: map[int64]bool{}}
				groups[tagged(cells)] = a
			}
			a.n++
			if v := r[3]; !v.Null {
				if a.cnt == 0 || v.Int < a.min {
					a.min = v.Int
				}
				if a.cnt == 0 || v.Int > a.max {
					a.max = v.Int
				}
				a.cnt++
				a.sum += v.Int
				a.distinct[v.Int] = true
			}
			if w := r[4]; !w.Null {
				a.wcnt++
				a.wsum += w.Int
			}
		}
		orNull := func(ok bool, v int64) Value {
			if !ok {
				return NullValue
			}
			return IntVal(v)
		}
		var want []Row
		for _, a := range groups {
			var dsum int64
			for v := range a.distinct {
				dsum += v
			}
			row := append(append(Row(nil), a.cells...),
				IntVal(a.n), IntVal(a.cnt), orNull(a.cnt > 0, a.sum), orNull(a.cnt > 0, a.sum/max(a.cnt, 1)),
				orNull(a.cnt > 0, a.min), orNull(a.cnt > 0, a.max),
				IntVal(int64(len(a.distinct))), orNull(a.cnt > 0, dsum), orNull(a.wcnt > 0, a.wsum))
			if q.Having == nil || q.Having(row) {
				want = append(want, row)
			}
		}
		sort.Slice(want, func(x, y int) bool { return refLess(want[x][:nkey], want[y][:nkey]) })
		if q.OrderBy != "" {
			oc := slices.Index(append(slices.Clone(q.GroupBy), "n", "count_v", "sv"), q.OrderBy)
			sort.SliceStable(want, func(x, y int) bool {
				a, b := want[x][oc:oc+1], want[y][oc:oc+1]
				if q.Desc {
					a, b = b, a
				}
				return refLess(a, b)
			})
		}
		if q.Limit > 0 && len(want) > q.Limit {
			want = want[:q.Limit]
		}

		for _, alg := range live.Algorithms() {
			res, err := Execute(tab, q, live.Config{Workers: 3, TableEntries: 4}, alg)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, alg, err)
			}
			if len(res.Rows) != len(want) {
				t.Fatalf("seed %d %v: %d result rows, oracle has %d (query %+v)", seed, alg, len(res.Rows), len(want), q)
			}
			for ri, r := range res.Rows {
				for ci := range r {
					got, w := r[ci], want[ri][ci]
					if got.Null != w.Null || (!w.Null && (got.Int != w.Int || got.Str != w.Str)) {
						t.Fatalf("seed %d %v: row %d column %q = %+v, oracle %+v (query %+v)",
							seed, alg, ri, res.Schema.Cols[ci].Name, got, w, q)
					}
				}
			}
		}
	}
}

func TestAggFuncNames(t *testing.T) {
	for f, want := range map[AggFunc]string{
		Count: "COUNT", CountStar: "COUNT(*)", Sum: "SUM", Avg: "AVG", Min: "MIN", Max: "MAX",
	} {
		if f.String() != want {
			t.Errorf("%d.String() = %q", f, f.String())
		}
	}
	a := Agg{Func: Sum, Col: "qty"}
	if a.outName() != "sum_qty" {
		t.Errorf("outName = %q", a.outName())
	}
	if (Agg{Func: CountStar}).outName() != "count_star" {
		t.Error("count_star name wrong")
	}
}

func BenchmarkQueryQ1Shape(b *testing.B) {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "flag", Type: Int64}, {Name: "qty", Type: Int64},
	}}}
	for i := 0; i < 50_000; i++ {
		tab.Append(Row{IntVal(int64(i % 6)), IntVal(int64(i % 50))})
	}
	q := Query{
		GroupBy: []string{"flag"},
		Aggs:    []Agg{{Func: CountStar}, {Func: Sum, Col: "qty"}, {Func: Avg, Col: "qty"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(tab, q, live.Config{}, live.AdaptiveTwoPhase); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleExecute() {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "city", Type: String},
		{Name: "sales", Type: Int64},
	}}}
	tab.Append(Row{StrVal("madison"), IntVal(10)})
	tab.Append(Row{StrVal("madison"), IntVal(30)})
	tab.Append(Row{StrVal("austin"), IntVal(5)})
	res, _ := Execute(tab, Query{
		GroupBy: []string{"city"},
		Aggs:    []Agg{{Func: Sum, Col: "sales", As: "total"}},
	}, live.Config{Workers: 2}, live.AdaptiveTwoPhase)
	for _, r := range res.Rows {
		fmt.Printf("%s %d\n", r[0].Str, r[1].Int)
	}
	// Output:
	// austin 5
	// madison 40
}

func TestOrderByAndLimitTopK(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "k", Type: Int64}, {Name: "v", Type: Int64},
	}}}
	// Sums: k=0 -> 5, k=1 -> 50, k=2 -> 20, k=3 -> 35.
	for _, r := range [][2]int64{{0, 5}, {1, 30}, {1, 20}, {2, 20}, {3, 35}} {
		tab.Append(Row{IntVal(r[0]), IntVal(r[1])})
	}
	res := exec(t, tab, Query{
		GroupBy: []string{"k"},
		Aggs:    []Agg{{Func: Sum, Col: "v", As: "total"}},
		OrderBy: "total",
		Desc:    true,
		Limit:   2,
	})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Int != 1 || res.Rows[0][1].Int != 50 {
		t.Errorf("top row = %v, want k=1 total=50", res.Rows[0])
	}
	if res.Rows[1][0].Int != 3 || res.Rows[1][1].Int != 35 {
		t.Errorf("second row = %v, want k=3 total=35", res.Rows[1])
	}
}

func TestOrderByAscending(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "k", Type: Int64}, {Name: "v", Type: Int64},
	}}}
	for _, r := range [][2]int64{{9, 1}, {5, 7}, {7, 3}} {
		tab.Append(Row{IntVal(r[0]), IntVal(r[1])})
	}
	res := exec(t, tab, Query{
		GroupBy: []string{"k"},
		Aggs:    []Agg{{Func: Sum, Col: "v", As: "s"}},
		OrderBy: "s",
	})
	var prev int64 = -1 << 62
	for _, r := range res.Rows {
		if r[1].Int < prev {
			t.Fatalf("rows not ascending by s: %v", res.Rows)
		}
		prev = r[1].Int
	}
}

func TestOrderByUnknownColumnRejected(t *testing.T) {
	tab := lineitems()
	_, err := Execute(tab, Query{
		GroupBy: []string{"returnflag"},
		Aggs:    []Agg{{Func: CountStar}},
		OrderBy: "nope",
	}, live.Config{}, live.TwoPhase)
	if err == nil {
		t.Error("unknown ORDER BY column accepted")
	}
}

func TestCountAndSumDistinct(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "k", Type: Int64}, {Name: "v", Type: Int64},
	}}}
	// Group 1: values 5,5,7 → distinct {5,7}; group 2: 9,NULL,9 → {9}.
	for _, r := range []struct {
		k int64
		v Value
	}{
		{1, IntVal(5)}, {1, IntVal(5)}, {1, IntVal(7)},
		{2, IntVal(9)}, {2, NullValue}, {2, IntVal(9)},
	} {
		tab.Append(Row{IntVal(r.k), r.v})
	}
	res := exec(t, tab, Query{
		GroupBy: []string{"k"},
		Aggs: []Agg{
			{Func: Count, Col: "v", Distinct: true, As: "nd"},
			{Func: Sum, Col: "v", Distinct: true, As: "sd"},
			{Func: Count, Col: "v", As: "n"},
			{Func: Sum, Col: "v", As: "s"},
		},
	})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	g1 := res.Rows[0]
	if g1[1].Int != 2 || g1[2].Int != 12 || g1[3].Int != 3 || g1[4].Int != 17 {
		t.Errorf("group 1 = %v, want nd=2 sd=12 n=3 s=17", g1)
	}
	g2 := res.Rows[1]
	if g2[1].Int != 1 || g2[2].Int != 9 || g2[3].Int != 2 || g2[4].Int != 18 {
		t.Errorf("group 2 = %v, want nd=1 sd=9 n=2 s=18", g2)
	}
}

func TestDistinctAllNullGroup(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "k", Type: Int64}, {Name: "v", Type: Int64},
	}}}
	tab.Append(Row{IntVal(1), NullValue})
	res := exec(t, tab, Query{
		GroupBy: []string{"k"},
		Aggs: []Agg{
			{Func: Count, Col: "v", Distinct: true},
			{Func: Sum, Col: "v", Distinct: true},
		},
	})
	if res.Rows[0][1].Int != 0 {
		t.Errorf("COUNT(DISTINCT all-NULL) = %v, want 0", res.Rows[0][1])
	}
	if !res.Rows[0][2].Null {
		t.Errorf("SUM(DISTINCT all-NULL) = %v, want NULL", res.Rows[0][2])
	}
}

func TestDistinctRejectedForMinMax(t *testing.T) {
	tab := lineitems()
	_, err := Execute(tab, Query{
		GroupBy: []string{"returnflag"},
		Aggs:    []Agg{{Func: Min, Col: "quantity", Distinct: true}},
	}, live.Config{}, live.TwoPhase)
	if err == nil {
		t.Error("MIN(DISTINCT) accepted")
	}
	// COUNT(DISTINCT *) has no column to deduplicate; it used to panic.
	_, err = Execute(tab, Query{Aggs: []Agg{{Func: CountStar, Distinct: true}}}, live.Config{}, live.TwoPhase)
	if err == nil {
		t.Error("COUNT(DISTINCT *) accepted")
	}
}

func TestDistinctOutputName(t *testing.T) {
	a := Agg{Func: Count, Col: "v", Distinct: true}
	if a.outName() != "count_distinct_v" {
		t.Errorf("outName = %q", a.outName())
	}
}

// The query layer used to allocate about five times per input row (a
// formatted key string, its builder, an encodedRow, …). Now its own
// allocations are per query, per shard and per group, and the rest is the
// engine's fixed cost per run (≈115 per worker, three runs here): a 4×
// larger table must cost almost the same number of allocations, and the
// spine's query shape stays in the hundreds, not the hundred-thousands,
// on one shard and on two. The passes' tuple buffers are recycled across
// queries, so once one query has run, the next allocates at most 2 B per
// row — a buffer made afresh would be 16 B per row and pass.
func TestExecuteAllocationCeiling(t *testing.T) {
	for _, w := range []int{1, 2} {
		cfg := live.Config{Workers: w}
		allocs := func(rows int) float64 {
			tab := lineitemTable(rows, 7)
			return testing.AllocsPerRun(5, func() {
				if _, err := Execute(tab, lineitemQuery, cfg, live.AdaptiveTwoPhase); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(1<<14), allocs(1<<16)
		if large-small >= 64 {
			t.Errorf("%d workers, 2^14 rows: %.0f allocations, 2^16 rows: %.0f — the query layer allocates per row again", w, small, large)
		}
		if large >= 400 {
			t.Errorf("%d workers: %.0f allocations per query on 2^16 rows, ceiling 400", w, large)
		}
		t.Logf("%d workers: allocations per query: %.0f on 2^14 rows, %.0f on 2^16 rows", w, small, large)

		if raceEnabled {
			continue // its sync.Pool drops a share of what it is given
		}
		const rows = 1 << 16
		tab := lineitemTable(rows, 7)
		bytes := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Execute(tab, lineitemQuery, cfg, live.AdaptiveTwoPhase); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		bytes() // warm-up: the pooled buffers and engine tables
		if got := float64(min(bytes(), bytes(), bytes())) / rows; got > 2 {
			t.Errorf("%d workers: a repeated query allocated %.2f B per row on 2^16 rows, ceiling 2", w, got)
		} else {
			t.Logf("%d workers: a repeated query allocated %.2f B per row", w, got)
		}
	}
}
