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
// One pass over the rows, a shard per engine worker, applies WHERE, turns
// each row's group-by cells into a dense group id by dictionaries, never a
// formatted key, and writes each aggregated cell into its engine pass, a
// partition per shard. The passes' results are stitched into a result
// table (DESIGN.md §15). SQL NULL semantics are honoured: aggregates
// ignore NULL inputs, COUNT(*) counts rows, and a group whose aggregated
// column is entirely NULL yields NULL.
package query

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"unsafe"

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
	return slices.IndexFunc(s.Cols, func(c Column) bool { return c.Name == name })
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
	if names := [...]string{"COUNT", "COUNT(*)", "SUM", "AVG", "MIN", "MAX"}; f >= 0 && int(f) < len(names) {
		return names[f]
	}
	return fmt.Sprintf("AggFunc(%d)", int(f))
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
	switch {
	case a.As != "":
		return a.As
	case a.Func == CountStar:
		return "count_star"
	case a.Distinct:
		return strings.ToLower(a.Func.String()) + "_distinct_" + a.Col
	}
	return strings.ToLower(a.Func.String()) + "_" + a.Col
}

// Query is a GROUP BY aggregation over a table.
type Query struct {
	GroupBy []string
	Aggs    []Agg
	// Where, if set, filters input rows before aggregation. It is called
	// from every engine worker's goroutine at once: keep it a pure predicate.
	Where func(Row) bool
	// Having, if set, filters result rows after aggregation. It receives
	// the result row (group-by cells then aggregate cells, in order).
	Having func(Row) bool
	// OrderBy, if set, sorts the result rows by the named RESULT column
	// (a group-by column or an aggregate's output name) instead of the
	// default group-by order. Desc reverses it.
	OrderBy string
	Desc    bool
	// Limit keeps the first Limit rows after OrderBy and Having (0: all);
	// with OrderBy, it is the SQL top-k idiom.
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
	i, out := r.Schema.Index(name), make([]Value, len(r.Rows))
	if i < 0 {
		return nil, fmt.Errorf("query: result has no column %q", name)
	}
	for j, row := range r.Rows {
		out[j] = row[i]
	}
	return out, nil
}

// validate resolves column references and checks aggregatability and size.
func (q Query) validate(t *Table) error {
	switch {
	case len(q.GroupBy) == 0 && len(q.Aggs) == 0:
		return fmt.Errorf("query: neither group-by columns nor aggregates given")
	case uint64(len(t.Rows)) > math.MaxUint32: // group ids, codes and row indices are 32-bit
		return fmt.Errorf("query: table has %d rows, limit is %d", len(t.Rows), uint32(math.MaxUint32))
	}
	for _, g := range q.GroupBy {
		if t.Schema.Index(g) < 0 {
			return fmt.Errorf("query: unknown group-by column %q", g)
		}
	}
	for _, a := range q.Aggs {
		switch i := t.Schema.Index(a.Col); {
		case a.Distinct && a.Func != Count && a.Func != Sum:
			return fmt.Errorf("query: DISTINCT is only supported for COUNT and SUM, not %v", a.Func)
		case a.Func == CountStar:
		case i < 0:
			return fmt.Errorf("query: unknown aggregate column %q", a.Col)
		case t.Schema.Cols[i].Type != Int64:
			return fmt.Errorf("query: cannot aggregate non-numeric column %q", a.Col)
		}
	}
	return nil
}

// keyDict extends a dense prefix id by one cell. code maps the cell to a
// dense column code and id maps (prefix, code) to a dense id; both mint 0,
// 1, 2, … in first-seen order, so the last group-by column's ids are the
// dense group keys 0..G-1 the engine and result assembly index by, and the
// mapping is injective whatever the column count or cardinality. A GROUP
// BY over k columns chains k of them (the first needs no prefix, its codes
// are its ids); a DISTINCT pass uses one, with the group id as the prefix.
type keyDict struct {
	vals  []Value           // code → the first cell seen with it
	strs  map[string]uint32 // codes past the front, by non-empty Str ("": NULL)
	ints  map[int64]uint32  // codes past the front, by Int
	pairs []uint64          // id → prefix<<32 | code
	ids   map[uint64]uint32 // ids past the front, by pair
	m     *memo
}

// memo is a keyDict's pooled block, cleared when taken: its fronts' backing
// and latest answers, asked before find and findID, which alone mint: codes
// by hash in two-way sets, each hit checked against the code's first cell,
// and ids by pair.
type memo struct {
	cells      [memoSets][2][2]uint64  // the hash (0: empty), the code
	pairs      [2 * memoSets][2]uint64 // the pair + 1 (0: empty), its id
	keys       [memoSets][2][2]uint64  // level 0's: a whole key's hash (0: empty), id<<32 | a row (< 2^32) with it
	misses, lo int                     // level 0's: the rows that asked past keys' first way; the shard's first row
	front      [frontLen]Value
	pairFront  [frontLen]uint64
}

// A dictionary finds its first frontLen entries by a linear scan; mix is 2^64/φ.
const frontLen, memoBits, memoSets, mix = 8, 5, 1 << 5, 0x9e3779b97f4a7c15

var memoPool = sync.Pool{New: func() any { return new(memo) }}

// newKeyDicts returns n empty dictionaries on pooled blocks, which putMemos
// gives back: one that never outgrows its fronts allocates nothing more.
func newKeyDicts(n int) []keyDict {
	ds := make([]keyDict, n)
	for i := range ds {
		m := memoPool.Get().(*memo)
		*m = memo{}
		ds[i] = keyDict{vals: m.front[:0], pairs: m.pairFront[:0], m: m}
	}
	return ds
}

func putMemos(ds []keyDict) {
	for i := range ds {
		memoPool.Put(ds[i].m)
	}
}

func (d *keyDict) code(v Value) uint32 {
	if len(d.vals) > 2*memoSets { // more codes than the memo holds: it would mostly miss
		return d.find(v)
	}
	h := cellHash(&v)*mix | 1 // never 0; the top bits pick the set
	set := &d.m.cells[h>>(64-memoBits)]
	for _, e := range set {
		if e[0] == h && sameKey(&d.vals[e[1]], &v, true) { // a hash can collide: the rule settles it
			return uint32(e[1])
		}
	}
	c := d.find(v)
	set[1], set[0] = set[0], [2]uint64{h, uint64(c)}
	return c
}

// cellHash hashes NULL, a non-empty Str (FNV-1a) and an Int each apart.
func cellHash(v *Value) uint64 {
	h := uint64(v.Int)
	if v.Null {
		h = 1 << 63
	} else if v.Str != "" {
		h = 0xcbf29ce484222325
		for i := 0; i < len(v.Str); i++ {
			h = (h ^ uint64(v.Str[i])) * 0x100000001b3
		}
	}
	return h
}

// sameKey is the key rule: two cells are one key exactly when both are
// NULL, or neither is and their Str are equal and non-empty, or both Str are
// empty and their Int are equal (StrVal("") and IntVal(0) are one). Data
// pointers go before bytes; without bytes, one Str on two backings is two.
func sameKey(c, v *Value, bytes bool) bool {
	return c.Null == v.Null && (v.Null || len(c.Str) == len(v.Str) && (v.Str != "" || c.Int == v.Int) &&
		(unsafe.StringData(c.Str) == unsafe.StringData(v.Str) || bytes && c.Str == v.Str))
}

func (d *keyDict) id(prefix, code uint32) uint32 {
	p, hi := uint64(prefix)<<32|uint64(code), uint64(prefix>>3)<<32|uint64(code>>3)
	e := &d.m.pairs[(uint64(prefix<<3^code)^hi*mix>>(63-memoBits))%(2*memoSets)] // prefix<<3 | code below 8
	if e[0] != p+1 {
		e[0], e[1] = p+1, uint64(d.findID(p))
	}
	return uint32(e[1])
}

func (d *keyDict) find(v Value) uint32 {
	front, next, spill := d.vals[:min(len(d.vals), frontLen)], uint32(len(d.vals)), len(d.vals) >= frontLen
	if spill && d.strs == nil {
		d.strs, d.ints = map[string]uint32{}, map[int64]uint32{}
	}
	if v.Null || v.Str != "" {
		for i := range front {
			if c := &front[i]; c.Null == v.Null && (v.Null || c.Str == v.Str) {
				return uint32(i)
			}
		}
		k := v.Str
		if v.Null {
			k = "" // NULL's key: any other cell here has a non-empty Str
		}
		if c, ok := d.strs[k]; ok {
			return c
		} else if spill {
			d.strs[k] = next
		}
	} else {
		for i := range front {
			if c := &front[i]; !c.Null && c.Str == "" && c.Int == v.Int {
				return uint32(i)
			}
		}
		if c, ok := d.ints[v.Int]; ok {
			return c
		} else if spill {
			d.ints[v.Int] = next
		}
	}
	d.vals = append(d.vals, v)
	return next
}

func (d *keyDict) findID(p uint64) uint32 {
	for i, q := range d.pairs[:min(len(d.pairs), frontLen)] {
		if q == p {
			return uint32(i)
		}
	}
	next, spill := uint32(len(d.pairs)), len(d.pairs) >= frontLen
	if spill && d.ids == nil {
		d.ids = map[uint64]uint32{}
	}
	if id, ok := d.ids[p]; ok {
		return id
	} else if spill {
		d.ids[p] = next
	}
	d.pairs = append(d.pairs, p)
	return next
}

// absorb mints d's codes and ids for l's, which come after d's in row
// order, in l's first-seen order; l's prefixes map through prefix (nil:
// kept). It returns l's id → d's, or its codes for a dictionary that mints
// no pairs (a GROUP BY's first), so d ends as if it had seen l's rows.
func (d *keyDict) absorb(l *keyDict, prefix []uint32) []uint32 {
	codes := make([]uint32, len(l.vals))
	for c, v := range l.vals {
		codes[c] = d.code(v)
	}
	if len(l.pairs) == 0 {
		return codes
	}
	ids := make([]uint32, len(l.pairs))
	for j, p := range l.pairs {
		pre := uint32(p >> 32)
		if prefix != nil {
			pre = prefix[pre]
		}
		ids[j] = d.id(pre, codes[uint32(p)])
	}
	return ids
}

// groupKey is a GROUP BY clause's dictionary: one keyDict per column and,
// with two or more, a memo of whole keys asked first (m: level 0's; nil: none).
type groupKey struct {
	cols  []int // schema position of each group-by column
	level []keyDict
	m     *memo
}

// whole returns row i of t's dense group id if the first way of its set
// in the memo of whole keys holds it, data pointers compared; else miss.
func (g *groupKey) whole(t *Table, i int) uint32 {
	r, h := t.Rows[i], uint64(0)
	for _, c := range g.cols { // rotated, or (NULL, 0) and (0, NULL) collide: 1<<63 times an odd mix is 1<<63
		h = (bits.RotateLeft64(h, 5)^cellHash(&r[c]))*mix | 1 // never 0; the top bits pick the set
	}
	if e := &g.m.keys[h>>(64-memoBits)][0]; e[0] == h && g.same(t.Rows[uint32(e[1])], r, false) {
		return uint32(e[1] >> 32)
	}
	return g.miss(t, i, h)
}

// miss asks row i's set again, bytes compared, then the levels, which
// alone mint, and puts the answer first.
func (g *groupKey) miss(t *Table, i int, h uint64) uint32 {
	m, r, set := g.m, t.Rows[i], &g.m.keys[h>>(64-memoBits)]
	if m.misses++; m.misses > 64+(i-m.lo)/8 { // past 64, one in eight of the shard's rows: it costs more than it saves
		g.m = nil
	}
	for w, e := range set {
		if e[0] == h && g.same(t.Rows[uint32(e[1])], r, true) {
			set[0], set[w] = e, set[0]
			return uint32(e[1] >> 32)
		}
	}
	id := g.levels(r)
	set[1], set[0] = set[0], [2]uint64{h, uint64(id)<<32 | uint64(i)}
	return id
}

// same reports whether rows a and b have one key.
func (g *groupKey) same(a, b Row, bytes bool) bool {
	for _, c := range g.cols {
		if !sameKey(&a[c], &b[c], bytes) {
			return false
		}
	}
	return true
}

// levels returns r's dense group id by the column dictionaries (0: none).
func (g *groupKey) levels(r Row) (id uint32) {
	for i := range g.level {
		if c := g.level[i].code(r[g.cols[i]]); i == 0 {
			id = c // the first level's codes are its ids
		} else {
			id = g.level[i].id(id, c)
		}
	}
	return id
}

// decode writes group id's cells (the first seen of each) into out.
func (g *groupKey) decode(id uint32, out Row) {
	for i := len(g.level) - 1; i >= 0; i-- {
		c := id // the first level's codes are its ids
		if i > 0 {
			c, id = uint32(g.level[i].pairs[id]), uint32(g.level[i].pairs[id]>>32)
		}
		out[i] = g.level[i].vals[c]
	}
}

// shard is an engine worker's rows [lo, hi) and a dictionary of their own.
type shard struct {
	t         *Table
	where     func(Row) bool
	lo, hi, n int // n: the rows WHERE kept
	gk        groupKey
	remap     []uint32 // gk's id → the query's; nil when they agree (shard 0, no GROUP BY)
	sinks     []sink   // one per pass
	panic     any      // what Where raised, re-raised on the caller
	err       error    // the first row of the wrong arity
}

// sink is a pass's partition of one shard: buf[:n] holds its tuples. The
// row pass writes (id, cell.Int) for the non-NULL cells of col (-1: (id,
// 0) for every kept row), or enters a DISTINCT pass's (id, cell) in pd.
type sink struct {
	col, n int
	buf    []tuple.Tuple
	pd     *keyDict
	box    *[]tuple.Tuple // buf, pooled
}

// bufPools holds free sink buffers by log2 of their length, as aggtable
// holds its slabs; a buffer travels as a pointer so Put boxes nothing.
var bufPools [33]sync.Pool

// getBuf returns a buffer of at least n tuples whose contents may be anything.
func getBuf(n int) *[]tuple.Tuple {
	k := bits.Len(uint(max(n, 1) - 1))
	if b, ok := bufPools[k].Get().(*[]tuple.Tuple); ok {
		return b
	}
	b := make([]tuple.Tuple, 1<<k)
	return &b
}

// rowPass applies WHERE, encodes the kept rows' group keys and writes each
// one's cells into every sink, counting in a copy of the sinks on its own
// stack: a store per row to the shards' side-by-side sinks would have two
// cores take turns at one cache line.
func (s *shard) rowPass() {
	cur, kept, ncol := append(make([]sink, 0, 4), s.sinks...), 0, len(s.t.Schema.Cols)
	for i, r := range s.t.Rows[s.lo:s.hi] {
		if len(r) != ncol {
			s.err = fmt.Errorf("query: row %d has %d cells, schema has %d columns", s.lo+i, len(r), ncol)
			return
		}
		if s.where != nil && !s.where(r) {
			continue
		}
		id := uint32(0)
		if s.gk.m != nil { // one call per row: levels inlines here
			id = s.gk.whole(s.t, s.lo+i)
		} else {
			id = s.gk.levels(r)
		}
		for j := range cur {
			if c := &cur[j]; c.col < 0 {
				c.buf[c.n], c.n = tuple.Tuple{Key: tuple.Key(id)}, c.n+1
			} else if cell := &r[c.col]; cell.Null {
				continue // SQL aggregates ignore NULLs
			} else if c.pd != nil {
				c.pd.id(id, c.pd.code(*cell))
			} else {
				c.buf[c.n], c.n = tuple.Tuple{Key: tuple.Key(id), Val: cell.Int}, c.n+1
			}
		}
		kept++
	}
	s.n = kept
	copy(s.sinks, cur)
}

// fanOut runs f on every shard at once, shard 0 on the caller's goroutine.
// The first shard in row order to fail decides: its panic is re-raised here.
func fanOut(shards []shard, f func(*shard)) {
	var wg sync.WaitGroup
	wg.Add(len(shards) - 1)
	for i := 1; i < len(shards); i++ {
		go func(s *shard) {
			defer func() { s.panic = recover(); wg.Done() }()
			f(s)
		}(&shards[i])
	}
	func() { defer wg.Wait(); f(&shards[0]) }() // a panic in shard 0 leaves no shard running
	for i := 0; i < len(shards) && shards[i].err == nil; i++ {
		if p := shards[i].panic; p != nil {
			panic(p)
		}
	}
}

// pass is one engine run: the non-NULL cells of one column (col -1:
// every row, for COUNT(*)), keyed by group id — or, for a DISTINCT pass,
// by the id of the (group, value) pair.
type pass struct {
	col      int
	distinct bool
	pds      []keyDict // a DISTINCT pass's pairs: one per shard, then the query's
	// st[g] is group g's state (Count 0: it fed no non-NULL value); a
	// DISTINCT pass fills Count and Sum only, one representative per pair.
	st []tuple.AggState
}

// Execute runs the query on the table with the live parallel engine.
func Execute(t *Table, q Query, cfg live.Config, alg live.Algorithm) (*Result, error) {
	if err := q.validate(t); err != nil {
		return nil, err
	}

	// Result schema: group-by columns, then aggregates.
	out, gcols := &Result{Schema: Schema{make([]Column, 0, len(q.GroupBy)+len(q.Aggs))}}, make([]int, 0, len(q.GroupBy))
	for _, g := range q.GroupBy {
		gcols = append(gcols, t.Schema.Index(g))
		out.Schema.Cols = append(out.Schema.Cols, t.Schema.Cols[gcols[len(gcols)-1]])
	}
	for _, a := range q.Aggs {
		out.Schema.Cols = append(out.Schema.Cols, Column{Name: a.outName(), Type: Int64})
	}
	orderCol := out.Schema.Index(q.OrderBy)
	if q.OrderBy != "" && orderCol < 0 {
		return nil, fmt.Errorf("query: ORDER BY column %q not in the result", q.OrderBy)
	}

	// One engine pass per distinct (column, DISTINCT) among the aggregates,
	// plus a row-count pass for COUNT(*) or when no plain column pass exists
	// (pure duplicate elimination); slot resolves each aggregate's pass.
	passes := make([]pass, 0, len(q.Aggs)+1)
	passFor := func(col int, distinct bool) int {
		if i := slices.IndexFunc(passes, func(p pass) bool { return p.col == col && p.distinct == distinct }); i >= 0 {
			return i
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

	// The row pass, a shard per engine worker, fills every pass's partitions.
	// Shard 0's dictionary becomes the query's and absorbs the others' in row
	// order: ids (dense, 0..G-1 IS every group), cells and result are one
	// sequential pass's.
	shards, n, nkey := make([]shard, cfg.WorkerCount()), len(t.Rows), len(gcols)
	dicts, sinks := newKeyDicts(len(shards)*nkey), make([]sink, len(shards)*len(passes))
	defer func() { // every writer is done: fanOut and the engine wait for theirs
		for _, o := range sinks {
			bufPools[bits.Len(uint(len(o.buf)-1))].Put(o.box)
		}
	}()
	defer putMemos(dicts)
	for i := range shards {
		lo, hi, s := i*n/len(shards), (i+1)*n/len(shards), &shards[i]
		*s = shard{t: t, where: q.Where, lo: lo, hi: hi, gk: groupKey{gcols, dicts[i*nkey : (i+1)*nkey], nil},
			sinks: sinks[i*len(passes) : (i+1)*len(passes)]}
		if nkey > 1 {
			s.gk.m, dicts[i*nkey].m.lo = dicts[i*nkey].m, lo
		}
		for pi := range passes {
			p, o := &passes[pi], &s.sinks[pi]
			if p.distinct && p.pds == nil {
				p.pds = newKeyDicts(len(shards) + 1) // one per shard, then the query's
				defer putMemos(p.pds)
			}
			if o.col, o.box = p.col, getBuf(hi-lo); p.distinct {
				o.pd = &p.pds[i]
			}
			o.buf = *o.box
		}
	}
	fanOut(shards, (*shard).rowPass)
	gk, selected := &shards[0].gk, 0
	for i := range shards {
		if s := &shards[i]; s.err != nil {
			return nil, s.err
		} else if selected += s.n; i > 0 {
			for l := range gk.level { // each level's prefixes through the last's ids
				s.remap = gk.level[l].absorb(&s.gk.level[l], s.remap)
			}
		}
	}
	fanOut(shards, func(s *shard) { // the shard's ids in its sinks become the query's
		for _, o := range s.sinks {
			for k := 0; s.remap != nil && k < o.n; k++ {
				o.buf[k].Key = tuple.Key(s.remap[o.buf[k].Key])
			}
		}
	})
	G := 1 // with no GROUP BY, one row even over no rows, as in SQL
	if nkey > 0 {
		G = max(len(gk.level[nkey-1].pairs), len(gk.level[nkey-1].vals)) // the last level's ids
	}

	// A shard's partition of a pass goes to one engine worker. A DISTINCT
	// pass (parallel duplicate elimination, the paper's other use case)
	// keys tuples by the (group, value) pairs its shards' dictionaries
	// absorbed, and each surviving pair folds into its group's count and sum.
	parts := make([][]tuple.Tuple, len(shards))
	for pi := range passes {
		p := &passes[pi]
		for i := range shards {
			o := &shards[i].sinks[pi]
			if o.pd != nil {
				for j, id := range p.pds[len(shards)].absorb(o.pd, shards[i].remap) {
					o.buf[j], o.n = tuple.Tuple{Key: tuple.Key(id), Val: o.pd.vals[uint32(o.pd.pairs[j])].Int}, j+1
				}
			}
			parts[i] = o.buf[:o.n]
		}
		res, err := live.AggregatePartitioned(cfg, parts, alg)
		if err != nil {
			return nil, err
		}
		p.st = make([]tuple.AggState, G)
		for k, s := range res.Groups {
			if p.pds == nil {
				p.st[k] = s
				continue
			}
			st := &p.st[p.pds[len(shards)].pairs[k]>>32]
			st.Count, st.Sum = st.Count+1, st.Sum+s.Min // s.Min: the pair's value, which all its tuples carry
		}
	}

	// Assemble one row per group, in group-by order, then HAVING, ORDER BY
	// and LIMIT. Distinct groups never compare equal, so the order is total.
	cells, width := make([]Value, G*len(out.Schema.Cols)), len(out.Schema.Cols) // rows cut to capacity: an append copies
	out.Rows = make([]Row, G)
	for g := range out.Rows {
		row := Row(cells[g*width : (g+1)*width : (g+1)*width])
		gk.decode(uint32(g), row)
		for i, a := range q.Aggs {
			row[nkey+i] = evalAgg(a.Func, passes[slot[i]].st[g])
		}
		out.Rows[g] = row
	}
	slices.SortFunc(out.Rows, func(a, b Row) int { return slices.CompareFunc(a[:nkey], b[:nkey], cmpValue) })
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
		r.Counter("sql_rows_selected_total", "rows surviving the WHERE clause").Add(int64(selected))
		r.Counter("sql_groups_out_total", "result rows produced (after HAVING and LIMIT)").Add(int64(len(out.Rows)))
	}
	return out, nil
}

// evalAgg turns a group's state in the aggregate's pass into its cell.
func evalAgg(f AggFunc, st tuple.AggState) Value {
	switch {
	case f == Count, f == CountStar:
		return IntVal(st.Count) // COUNT of an all-NULL column is 0, not NULL
	case st.Count == 0: // NULL
	case f == Sum:
		return IntVal(st.Sum)
	case f == Avg:
		return IntVal(st.Sum / st.Count)
	case f == Min:
		return IntVal(st.Min)
	case f == Max:
		return IntVal(st.Max)
	}
	return NullValue
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
