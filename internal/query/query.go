// Package query is a SQL-flavoured front-end over the parallel aggregation
// engine: multi-column rows, GROUP BY over several columns, multiple
// aggregate functions per query, WHERE predicates pushed below the
// aggregation, and HAVING applied after it — the full query shape of
// Section 2 of the paper:
//
//	SELECT   group-by columns, aggregates
//	FROM     table
//	[WHERE   predicate]
//	GROUP BY columns
//	[HAVING  predicate]
//
// One sequential pass over the rows applies WHERE and turns each row's
// group-by cells into a dense group id: every group-by column has a code
// dictionary, and the codes are folded left to right through (prefix id,
// code) pair dictionaries, so no key is ever formatted or concatenated.
// Each aggregated column then becomes one engine pass, projected into a
// tuple buffer the passes share, and the passes are stitched back into a
// result table (DESIGN.md §15). SQL NULL semantics are honoured:
// aggregates ignore NULL inputs, COUNT(*) counts rows, and a group whose
// aggregated column is entirely NULL yields NULL.
package query

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"parallelagg/internal/live"
	"parallelagg/internal/tuple"
)

// Type is a column type.
type Type int

const (
	// Int64 is a 64-bit integer column.
	Int64 Type = iota
	// String is a text column (usable in GROUP BY, not aggregatable).
	String
)

// Column describes one table column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered column list.
type Schema struct {
	Cols []Column
}

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Value is one cell: an integer, a string, or SQL NULL.
type Value struct {
	Null bool
	Int  int64
	Str  string
}

// NullValue is the SQL NULL cell.
var NullValue = Value{Null: true}

// IntVal builds a non-null integer cell.
func IntVal(v int64) Value { return Value{Int: v} }

// StrVal builds a non-null string cell.
func StrVal(v string) Value { return Value{Str: v} }

// Row is one table row, cells in schema order.
type Row []Value

// Table is an in-memory relation.
type Table struct {
	Schema Schema
	Rows   []Row
}

// Append adds a row, validating its arity and that no Int64 column is
// handed a string cell (it would aggregate as 0).
func (t *Table) Append(r Row) error {
	if len(r) != len(t.Schema.Cols) {
		return fmt.Errorf("query: row has %d cells, schema has %d columns", len(r), len(t.Schema.Cols))
	}
	for i, c := range r {
		if col := t.Schema.Cols[i]; col.Type == Int64 && !c.Null && c.Str != "" {
			return fmt.Errorf("query: string cell %q in Int64 column %q", c.Str, col.Name)
		}
	}
	t.Rows = append(t.Rows, r)
	return nil
}

// AggFunc is a SQL aggregate function.
type AggFunc int

const (
	// Count is COUNT(col): the number of non-null values.
	Count AggFunc = iota
	// CountStar is COUNT(*): the number of rows in the group.
	CountStar
	Sum
	// Avg is SQL-style integer average: SUM/COUNT with integer division.
	Avg
	Min
	Max
)

// String returns the SQL name.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case CountStar:
		return "COUNT(*)"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// Agg is one aggregate output: Func over Col, named As in the result.
// CountStar ignores Col. An empty As derives a name like "sum_qty".
// Distinct selects the SQL DISTINCT variant (COUNT(DISTINCT col) /
// SUM(DISTINCT col)); it is valid only for Count and Sum.
type Agg struct {
	Func     AggFunc
	Col      string
	As       string
	Distinct bool
}

func (a Agg) outName() string {
	if a.As != "" {
		return a.As
	}
	if a.Func == CountStar {
		return "count_star"
	}
	name := strings.ToLower(a.Func.String()) + "_" + a.Col
	if a.Distinct {
		name = strings.ToLower(a.Func.String()) + "_distinct_" + a.Col
	}
	return name
}

// Query is a GROUP BY aggregation over a table.
type Query struct {
	GroupBy []string
	Aggs    []Agg
	// Where, if set, filters input rows before aggregation.
	Where func(Row) bool
	// Having, if set, filters result rows after aggregation. It receives
	// the result row (group-by cells then aggregate cells, in order).
	Having func(Row) bool
	// OrderBy, if set, sorts the result rows by the named RESULT column
	// (a group-by column or an aggregate's output name) instead of the
	// default group-by order. Desc reverses it.
	OrderBy string
	Desc    bool
	// Limit truncates the result to the first Limit rows (after OrderBy
	// and Having). 0 means no limit. Together with OrderBy this is the
	// SQL top-k idiom.
	Limit int
}

// Result is the query output: one row per surviving group, columns =
// group-by columns followed by the aggregates, rows sorted by the group-by
// cells so results are deterministic.
type Result struct {
	Schema Schema
	Rows   []Row
}

// Col returns the values of the named result column.
func (r *Result) Col(name string) ([]Value, error) {
	i := r.Schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("query: result has no column %q", name)
	}
	out := make([]Value, len(r.Rows))
	for j, row := range r.Rows {
		out[j] = row[i]
	}
	return out, nil
}

// validate resolves column references and checks aggregatability.
func (q Query) validate(s Schema) error {
	if len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
		return fmt.Errorf("query: neither group-by columns nor aggregates given")
	}
	for _, g := range q.GroupBy {
		if s.Index(g) < 0 {
			return fmt.Errorf("query: unknown group-by column %q", g)
		}
	}
	for _, a := range q.Aggs {
		if a.Distinct && a.Func != Count && a.Func != Sum {
			return fmt.Errorf("query: DISTINCT is only supported for COUNT and SUM, not %v", a.Func)
		}
		if a.Func == CountStar {
			continue
		}
		i := s.Index(a.Col)
		if i < 0 {
			return fmt.Errorf("query: unknown aggregate column %q", a.Col)
		}
		if s.Cols[i].Type != Int64 {
			return fmt.Errorf("query: cannot aggregate non-numeric column %q", a.Col)
		}
	}
	return nil
}

// frontLen is how many of a dictionary's first entries are found by a
// linear scan before its map is consulted. A column or key with no more
// distinct values than this — a flag, a status — is never hashed.
const frontLen = 8

// keyDict extends a dense prefix id by one cell. code maps the cell to a
// dense column code and id maps (prefix, code) to a dense id; both mint
// 0, 1, 2, … in first-seen order, so the ids of the last group-by column
// are the dense group keys 0..G-1 the engine and result assembly index
// by, and the mapping is injective whatever the column count or
// cardinality. A GROUP BY over k columns chains k of them (the first
// needs no prefix, its codes are its ids); a DISTINCT pass uses one, with
// the group id as the prefix.
//
// Two cells are the same key exactly when both are NULL, or neither is
// and their Str are equal and non-empty, or both Str are empty and their
// Int are equal — StrVal("") and IntVal(0) are one Value and one key.
type keyDict struct {
	vals  []Value           // code → the first cell seen with it
	null  uint32            // NULL's code + 1 once it is past the front
	strs  map[string]uint32 // codes past the front, by non-empty Str
	ints  map[int64]uint32  // codes past the front, by Int
	pairs []uint64          // id → prefix<<32 | code
	ids   map[uint64]uint32 // ids past the front, by pair
}

func newKeyDict() *keyDict {
	return &keyDict{strs: map[string]uint32{}, ints: map[int64]uint32{}, ids: map[uint64]uint32{}}
}

func (d *keyDict) code(v Value) uint32 {
	front := d.vals[:min(len(d.vals), frontLen)]
	next, spill := uint32(len(d.vals)), len(d.vals) >= frontLen
	switch {
	case v.Null:
		for i := range front {
			if front[i].Null {
				return uint32(i)
			}
		}
		if spill {
			if d.null != 0 {
				return d.null - 1
			}
			d.null = next + 1
		}
	case v.Str != "":
		for i := range front {
			if c := &front[i]; !c.Null && c.Str == v.Str {
				return uint32(i)
			}
		}
		if spill {
			if c, ok := d.strs[v.Str]; ok {
				return c
			}
			d.strs[v.Str] = next
		}
	default:
		for i := range front {
			if c := &front[i]; !c.Null && c.Str == "" && c.Int == v.Int {
				return uint32(i)
			}
		}
		if spill {
			if c, ok := d.ints[v.Int]; ok {
				return c
			}
			d.ints[v.Int] = next
		}
	}
	d.vals = append(d.vals, v)
	return next
}

func (d *keyDict) id(prefix, code uint32) uint32 {
	p := uint64(prefix)<<32 | uint64(code)
	for i, q := range d.pairs[:min(len(d.pairs), frontLen)] {
		if q == p {
			return uint32(i)
		}
	}
	next := uint32(len(d.pairs))
	if len(d.pairs) >= frontLen {
		if id, ok := d.ids[p]; ok {
			return id
		}
		d.ids[p] = next
	}
	d.pairs = append(d.pairs, p)
	return next
}

// groupKey is a GROUP BY clause's dictionary: one keyDict per column.
type groupKey struct {
	cols  []int // schema position of each group-by column
	level []*keyDict
}

func newGroupKey(cols []int) *groupKey {
	g := &groupKey{cols: cols}
	for range cols {
		g.level = append(g.level, newKeyDict())
	}
	return g
}

// encode returns the row's dense group id. With no group-by columns every
// row is group 0.
func (g *groupKey) encode(r Row) uint32 {
	id := uint32(0)
	for i, d := range g.level {
		c := d.code(r[g.cols[i]])
		if i > 0 {
			c = d.id(id, c)
		}
		id = c
	}
	return id
}

// decode writes group id's cells (the first seen of each) into out.
func (g *groupKey) decode(id uint32, out Row) {
	for i := len(g.level) - 1; i > 0; i-- {
		p := g.level[i].pairs[id]
		out[i] = g.level[i].vals[uint32(p)]
		id = uint32(p >> 32)
	}
	if len(g.level) > 0 {
		out[0] = g.level[0].vals[id]
	}
}

// pass is one engine run: the non-NULL cells of one column (col -1:
// every row, for COUNT(*)), keyed by group id — or, for a DISTINCT pass,
// by the id of the (group, value) pair.
type pass struct {
	col      int
	distinct bool
	// st[g] is group g's state once the pass has run. Count 0 means the
	// group fed the pass no non-NULL value. A DISTINCT pass fills Count
	// and Sum only, from one representative per pair.
	st []tuple.AggState
}

// Execute runs the query on the table using the live parallel engine with
// the given configuration and algorithm.
func Execute(t *Table, q Query, cfg live.Config, alg live.Algorithm) (*Result, error) {
	if err := q.validate(t.Schema); err != nil {
		return nil, err
	}
	// Group ids, codes and row indices are 32-bit; all are below the row count.
	if uint64(len(t.Rows)) > math.MaxUint32 {
		return nil, fmt.Errorf("query: table has %d rows, limit is %d", len(t.Rows), uint32(math.MaxUint32))
	}

	// Result schema: group-by columns, then aggregates.
	out := &Result{}
	var gcols []int
	for _, g := range q.GroupBy {
		i := t.Schema.Index(g)
		gcols = append(gcols, i)
		out.Schema.Cols = append(out.Schema.Cols, t.Schema.Cols[i])
	}
	gk := newGroupKey(gcols)
	for _, a := range q.Aggs {
		out.Schema.Cols = append(out.Schema.Cols, Column{Name: a.outName(), Type: Int64})
	}
	orderCol := out.Schema.Index(q.OrderBy)
	if q.OrderBy != "" && orderCol < 0 {
		return nil, fmt.Errorf("query: ORDER BY column %q not in the result", q.OrderBy)
	}

	// One engine pass per distinct (column, DISTINCT) among the
	// aggregates, plus a row-count pass whenever COUNT(*) is requested or
	// no plain column pass exists (pure duplicate elimination). slot
	// resolves each aggregate to its pass once, not per group.
	var passes []pass
	passFor := func(col int, distinct bool) int {
		for i, p := range passes {
			if p.col == col && p.distinct == distinct {
				return i
			}
		}
		passes = append(passes, pass{col: col, distinct: distinct})
		return len(passes) - 1
	}
	slot := make([]int, len(q.Aggs))
	for i, a := range q.Aggs {
		col := -1
		if a.Func != CountStar {
			col = t.Schema.Index(a.Col)
		}
		slot[i] = passFor(col, a.Distinct)
	}
	if !slices.ContainsFunc(passes, func(p pass) bool { return !p.distinct }) {
		passFor(-1, false)
	}

	// The row pass: WHERE, then the dense group key. It is sequential, so
	// Where is never called concurrently. sel holds the surviving rows'
	// indices and stays nil without a WHERE (every row survives). Every id
	// was minted by a surviving row and ids are dense, so 0..G-1 IS the
	// union of groups across passes (a group whose aggregated column is
	// entirely NULL still exists).
	keys, G, ncols := make([]tuple.Key, 0, len(t.Rows)), 0, len(t.Schema.Cols)
	var sel []uint32
	if q.Where != nil {
		sel = make([]uint32, 0, len(t.Rows))
	}
	for i, r := range t.Rows {
		if len(r) != ncols {
			return nil, rowArityError(i, len(r), ncols)
		}
		if q.Where != nil {
			if !q.Where(r) {
				continue
			}
			sel = append(sel, uint32(i))
		}
		id := gk.encode(r)
		G = max(G, int(id)+1)
		keys = append(keys, tuple.Key(id))
	}

	// The engine only reads its input and is done with it on return, so
	// one projection buffer serves every pass. A DISTINCT pass keys its
	// tuples by (group, value) pair — parallel duplicate elimination, the
	// paper's other use case — and folds one representative per surviving
	// pair back into the group's count and sum.
	buf := make([]tuple.Tuple, 0, len(keys))
	for pi := range passes {
		p := &passes[pi]
		var pd *keyDict
		if p.distinct {
			pd = newKeyDict()
		}
		buf = buf[:0]
		for i, k := range keys {
			v := int64(0)
			if p.col >= 0 {
				ri := i
				if sel != nil {
					ri = int(sel[i])
				}
				cell := &t.Rows[ri][p.col]
				if cell.Null {
					continue // SQL aggregates ignore NULLs
				}
				v = cell.Int
				if pd != nil {
					k = tuple.Key(pd.id(uint32(k), pd.code(*cell)))
				}
			}
			buf = append(buf, tuple.Tuple{Key: k, Val: v})
		}
		res, err := live.Aggregate(cfg, buf, alg)
		if err != nil {
			return nil, err
		}
		p.st = make([]tuple.AggState, G)
		for k, s := range res.Groups {
			if pd == nil {
				p.st[k] = s
				continue
			}
			pair := pd.pairs[k]
			st := &p.st[pair>>32]
			st.Count++
			st.Sum += pd.vals[uint32(pair)].Int
		}
	}

	// Assemble one row per group, in group-by order, then HAVING, ORDER BY
	// and LIMIT. Distinct groups never compare equal, so the order is total.
	nkey := len(gk.level)
	out.Rows = make([]Row, G)
	for g := range out.Rows {
		row := make(Row, nkey+len(q.Aggs))
		gk.decode(uint32(g), row)
		for i, a := range q.Aggs {
			row[nkey+i] = evalAgg(a.Func, passes[slot[i]].st[g])
		}
		out.Rows[g] = row
	}
	slices.SortFunc(out.Rows, func(a, b Row) int {
		for i := 0; i < nkey; i++ {
			if c := cmpValue(a[i], b[i]); c != 0 {
				return c
			}
		}
		return 0
	})
	if q.Having != nil {
		out.Rows = slices.DeleteFunc(out.Rows, func(r Row) bool { return !q.Having(r) })
	}
	if q.OrderBy != "" {
		slices.SortStableFunc(out.Rows, func(a, b Row) int {
			if q.Desc {
				a, b = b, a
			}
			return cmpValue(a[orderCol], b[orderCol])
		})
	}
	if q.Limit > 0 && len(out.Rows) > q.Limit {
		out.Rows = out.Rows[:q.Limit]
	}
	if r := cfg.Obs; r != nil {
		r.Counter("sql_queries_total", "queries executed").Inc()
		r.Counter("sql_rows_in_total", "table rows read (before WHERE)").Add(int64(len(t.Rows)))
		r.Counter("sql_rows_selected_total", "rows surviving the WHERE clause").Add(int64(len(keys)))
		r.Counter("sql_groups_out_total", "result rows produced (after HAVING and LIMIT)").Add(int64(len(out.Rows)))
	}
	return out, nil
}

func rowArityError(row, cells, cols int) error {
	return fmt.Errorf("query: row %d has %d cells, schema has %d columns", row, cells, cols)
}

// evalAgg turns a group's state in the aggregate's pass into its cell.
func evalAgg(f AggFunc, st tuple.AggState) Value {
	switch {
	case f == Count, f == CountStar:
		return IntVal(st.Count) // COUNT of an all-NULL column is 0, not NULL
	case st.Count == 0:
		return NullValue
	case f == Sum:
		return IntVal(st.Sum)
	case f == Avg:
		return IntVal(st.Sum / st.Count)
	case f == Min:
		return IntVal(st.Min)
	case f == Max:
		return IntVal(st.Max)
	default:
		return NullValue
	}
}

// cmpValue orders cells: NULLs first, then by string, then by int.
func cmpValue(a, b Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	case a.Str != b.Str:
		return strings.Compare(a.Str, b.Str)
	default:
		return cmp.Compare(a.Int, b.Int)
	}
}
