package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"parallelagg/internal/live"
)

// memoSet is the memo set cell v lands in and the hash stored for it,
// read back from a fresh dictionary that has coded v alone.
func memoSet(v Value) (set int, hash uint64) {
	d := newKeyDicts(1)
	defer putMemos(d)
	d[0].code(v)
	for s, ways := range d[0].m.cells {
		if ways[0][0] != 0 {
			return s, ways[0][0]
		}
	}
	panic("code left the memo empty")
}

// The memo is a cache in front of the front and the maps, so no answer of
// it may differ from theirs: not when many cells share one memo set (more
// than its two ways), not when a stored hash is another cell's, and not
// when a pooled block comes back from an earlier query.
func TestKeyMemoCollisionsAndReuse(t *testing.T) {
	// Strings and ints found by search that share NULL's set, and a set
	// of their own, with StrVal("") and IntVal(0) (one key) beside them.
	nullSet, _ := memoSet(NullValue)
	_, zeroHash := memoSet(IntVal(0))
	byStr, byInt := map[int][]Value{}, map[int][]Value{}
	for i := 0; len(byStr[nullSet]) < 4 || len(byInt[nullSet]) < 4; i++ {
		s, _ := memoSet(StrVal(fmt.Sprint("k", i)))
		byStr[s] = append(byStr[s], StrVal(fmt.Sprint("k", i)))
		s, _ = memoSet(IntVal(int64(i)))
		byInt[s] = append(byInt[s], IntVal(int64(i)))
	}
	cells := []Value{NullValue, {Null: true, Str: "k0", Int: 7}, StrVal(""), IntVal(0), {Str: "k0", Int: 5}}
	cells = append(cells, byStr[nullSet][:4]...)
	cells = append(cells, byInt[nullSet][:4]...)
	for s := 0; s < memoSets; s++ {
		if len(byStr[s]) >= 3 && len(byInt[s]) >= 3 && s != nullSet {
			cells = append(append(cells, byStr[s][:3]...), byInt[s][:3]...)
			break
		}
	}
	if len(cells) != 19 {
		t.Fatalf("found %d cells, want 19", len(cells))
	}
	if n := 2 * memoSets; len(cells)*len(cells) <= n {
		t.Fatalf("%d cells make no more pairs than the memo's %d slots", len(cells), n)
	}

	// Random order, two columns, against the tagged-string oracle; each
	// cell drawn from a few, so pairs repeat and keep hitting the memo.
	rng := rand.New(rand.NewSource(1))
	g, ref := newGroupKey([]int{0, 1}), map[string]uint32{}
	defer putMemos(g.level)
	for i := 0; i < 20000; i++ {
		pool := cells[:2+rng.Intn(len(cells)-1)]
		r := Row{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
		want, seen := ref[tagged(r)]
		if !seen {
			want = uint32(len(ref))
			ref[tagged(r)] = want
		}
		if got := g.encodeRow(r); got != want {
			t.Fatalf("row %d %v encodes to %d, want %d", i, r, got, want)
		}
	}
	back := make(Row, 2)
	for key, id := range ref {
		if g.decode(id, back); tagged(back) != key {
			t.Fatalf("id %d decodes to %v, was minted by %s", id, back, key)
		}
	}

	// A stored hash that is another cell's: the rule, not the hash, decides.
	d := newKeyDicts(1)
	defer putMemos(d)
	a, b := d[0].code(StrVal("a")), d[0].code(IntVal(0))
	for s := range d[0].m.cells {
		for w := range d[0].m.cells[s] {
			if e := &d[0].m.cells[s][w]; e[0] != 0 {
				e[1] = uint64(a) // every entry now answers StrVal("a")'s code
			}
		}
	}
	if got := d[0].code(IntVal(0)); got != b {
		t.Errorf("IntVal(0) behind a forged entry is code %d, want %d", got, b)
	}
	if d[0].m.cells[zeroHash>>(64-memoBits)][0] != [2]uint64{zeroHash, uint64(b)} {
		t.Errorf("IntVal(0)'s own entry is not the first of its set: %v", d[0].m.cells[zeroHash>>(64-memoBits)])
	}

	// The same cells through Execute on every shard count.
	tab := &Table{Schema: Schema{Cols: []Column{{Name: "a", Type: String}, {Name: "b", Type: String}, {Name: "v", Type: Int64}}}}
	for i := 0; i < 3000; i++ {
		tab.Rows = append(tab.Rows, Row{cells[rng.Intn(len(cells))], cells[rng.Intn(len(cells))], IntVal(int64(i % 7))})
	}
	aggs := []Agg{{Func: CountStar}, {Func: Sum, Col: "v"}, {Func: Count, Col: "v", Distinct: true}}
	sameOverShards(t, "colliding cells", tab, Query{GroupBy: []string{"a", "b"}, Aggs: aggs})
	sameOverShards(t, "colliding cells, one key", tab, Query{GroupBy: []string{"b"}, Aggs: aggs})

	// Back to back, tables of the same strings in other first-seen orders:
	// a memo block kept from the query before, were it not cleared, would
	// answer with that query's codes and ids.
	for round := 0; round < 20; round++ {
		perm := rng.Perm(len(cells))
		tab := &Table{Schema: tab.Schema}
		for i := 0; i < 200; i++ {
			a, b := cells[perm[rng.Intn(1+i%len(perm))]], cells[perm[rng.Intn(len(perm))]]
			tab.Rows = append(tab.Rows, Row{a, b, IntVal(1)})
		}
		oracleCheck(t, fmt.Sprint("round ", round), tab, 2, live.Config{Workers: 1 + round%3})
	}
}

// oracleCheck runs GROUP BY the table's first k columns with COUNT(*) and
// wants the sequential oracle's groups: a count per tagged key, each key
// cell the first cell seen with its tag in its column.
func oracleCheck(t testing.TB, name string, tab *Table, k int, cfg live.Config) {
	t.Helper()
	by := make([]string, k)
	for c := range by {
		by[c] = tab.Schema.Cols[c].Name
	}
	res, err := Execute(tab, Query{GroupBy: by, Aggs: []Agg{{Func: CountStar}}}, cfg, live.AdaptiveTwoPhase)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	count, first := map[string]int64{}, make([]map[string]Value, k)
	for c := range first {
		first[c] = map[string]Value{}
	}
	for _, r := range tab.Rows {
		count[tagged(r[:k])]++
		for c := range first {
			if _, ok := first[c][tagged(r[c:c+1])]; !ok {
				first[c][tagged(r[c:c+1])] = r[c]
			}
		}
	}
	if len(res.Rows) != len(count) {
		t.Fatalf("%s: %d groups, oracle %d", name, len(res.Rows), len(count))
	}
	for _, r := range res.Rows {
		want := append(make(Row, 0, k+1), r[:k]...)
		for c := range want {
			want[c] = first[c][tagged(r[c:c+1])]
		}
		if want = append(want, IntVal(count[tagged(r[:k])])); !reflect.DeepEqual(r, want) {
			t.Fatalf("%s: row %v, oracle %v", name, r, want)
		}
	}
}

// keySet is the whole-key memo set row r lands in, read back from a fresh
// groupKey over r's columns that has encoded r alone.
func keySet(r Row) int {
	g := newGroupKey(make([]int, len(r)))
	defer putMemos(g.level)
	for c := range g.cols {
		g.cols[c] = c
	}
	g.encodeRow(r)
	for s, ways := range g.level[0].m.keys {
		if ways[0][0] != 0 {
			return s
		}
	}
	panic("encode left the whole-key memo empty")
}

// The whole-key memo is a cache in front of the levels, so no answer of it
// may differ from theirs: not for keys that share a set (more than its two
// ways), not for cells that are one key but not one Value in any position,
// not for equal strings on other backings or equal backings of other
// lengths, not on one column or three, not when a stored hash is another
// key's, and not when a pooled block comes back from an earlier query.
func TestKeyMemoWholeKey(t *testing.T) {
	// NULL (one with a Str riding along), StrVal("") and IntVal(0) (one
	// key; one more on a backing that is not nil), a Str carrying an Int,
	// and "x" at three data pointers, one shared with "xy".
	const xyx = "xyx"
	edge := []Value{NullValue, {Null: true, Str: "x"}, StrVal(""), IntVal(0), {Str: xyx[1:1]}, {Str: "x", Int: 5},
		StrVal(xyx[:1]), StrVal(xyx[2:]), StrVal(strings.Clone("x")), StrVal(xyx[:2])}
	// Four two-column keys found by search that share one set.
	bySet, shared := map[int][]Row{}, []Row(nil)
	for i := 0; shared == nil; i++ {
		r := Row{StrVal(fmt.Sprint("k", i)), edge[i%len(edge)]}
		if s := keySet(r); len(append(bySet[s], r)) == 4 {
			shared = append(bySet[s], r)
		} else {
			bySet[s] = append(bySet[s], r)
		}
	}
	cells := slices.Clone(edge)
	for _, r := range shared {
		cells = append(cells, r[0])
	}
	rng := rand.New(rand.NewSource(1))
	// The same string on a backing of its own half of the time.
	draw := func() Value {
		v := cells[rng.Intn(len(cells))]
		if v.Str != "" && rng.Intn(2) == 0 {
			v.Str = strings.Clone(v.Str)
		}
		return v
	}
	for _, k := range []int{1, 2, 3} {
		rows := make([]Row, 0, 3000)
		for len(rows) < cap(rows) {
			if r := shared[rng.Intn(len(shared))]; k == 2 && rng.Intn(2) == 0 {
				rows = append(rows, slices.Clone(r)) // keys of one set, hitting its two ways by turns
				continue
			}
			r := make(Row, k)
			for c := range r {
				r[c] = draw()
			}
			rows = append(rows, r)
		}
		g, ref := newGroupKey(make([]int, k)), map[string]uint32{}
		for c := range g.cols {
			g.cols[c] = c
		}
		for i, r := range rows {
			want, seen := ref[tagged(r)]
			if !seen {
				want = uint32(len(ref))
				ref[tagged(r)] = want
			}
			if got := g.encodeRow(r); got != want {
				t.Fatalf("%d columns, row %d %v encodes to %d, want %d", k, i, r, got, want)
			}
		}
		back := make(Row, k)
		for key, id := range ref {
			if g.decode(id, back); tagged(back) != key {
				t.Fatalf("%d columns: id %d decodes to %v, was minted by %s", k, id, back, key)
			}
		}
		putMemos(g.level)

		tab := &Table{Schema: Schema{Cols: []Column{{Name: "a", Type: String}, {Name: "b", Type: String},
			{Name: "c", Type: String}, {Name: "v", Type: Int64}}}}
		for i, r := range rows {
			tab.Rows = append(tab.Rows, append(append(r, make(Row, 3-k)...), IntVal(int64(i%5))))
		}
		name := fmt.Sprint(k, " columns")
		oracleCheck(t, name, tab, k, live.Config{Workers: 3, TableEntries: 4})
		sameOverShards(t, name, tab, Query{GroupBy: []string{"a", "b", "c"}[:k],
			Aggs: []Agg{{Func: CountStar}, {Func: Sum, Col: "v"}, {Func: Count, Col: "v", Distinct: true}}})
	}

	// A stored hash that is another key's: the row, not the hash, decides.
	g := newGroupKey([]int{0, 1})
	defer putMemos(g.level)
	a, b := g.encodeRow(Row{StrVal("a"), IntVal(1)}), g.encodeRow(Row{StrVal("b"), IntVal(2)})
	for s := range g.level[0].m.keys {
		for w := range g.level[0].m.keys[s] {
			if e := &g.level[0].m.keys[s][w]; e[0] != 0 {
				e[1] = uint64(a) << 32 // every entry now answers a's id, by a's row
			}
		}
	}
	if got := g.encodeRow(Row{StrVal("b"), IntVal(2)}); got != b {
		t.Errorf("(b, 2) behind a forged entry is id %d, want %d", got, b)
	}

	// Back to back, tables of the same keys in other first-seen orders and
	// of other lengths: an entry kept from the query before, were its block
	// not cleared, would answer with that query's id for a row of its table.
	for round := 0; round < 20; round++ {
		perm := rng.Perm(len(shared))
		tab := &Table{Schema: Schema{Cols: []Column{{Name: "a", Type: String}, {Name: "b", Type: String}}}}
		for i := 0; i < 100+rng.Intn(200); i++ {
			tab.Rows = append(tab.Rows, slices.Clone(shared[perm[rng.Intn(1+i%len(perm))]]))
		}
		oracleCheck(t, fmt.Sprint("round ", round), tab, 2, live.Config{Workers: 1 + round%3})
	}
}

// A shard drops its memo of whole keys once more than one row in eight past
// the first 64 has missed its first way, counted from the shard's first
// row; ids stay those of the levels either side of the drop.
func TestKeyMemoWholeKeyDrop(t *testing.T) {
	// sql_groupby's six keys, each in a set of its own.
	flags, status, rng := []string{"A", "N", "R"}, []string{"F", "O"}, rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		row  func(i int) Row
		kept bool
	}{
		{"six keys", func(int) Row { return Row{StrVal(flags[rng.Intn(3)]), StrVal(status[rng.Intn(2)])} }, true},
		{"six keys, own backings", func(int) Row {
			return Row{StrVal(strings.Clone(flags[rng.Intn(3)])), StrVal(strings.Clone(status[rng.Intn(2)]))}
		}, false},
		{"a key per row", func(i int) Row { return Row{IntVal(int64(i)), StrVal("x")} }, false},
	} {
		const lo = 1000 // the shard's first row
		g, ref := &testKey{groupKey: groupKey{cols: []int{0, 1}, level: newKeyDicts(2)}}, map[string]uint32{}
		g.m, g.t.Rows = g.level[0].m, make([]Row, lo)
		g.m.lo = lo
		for i := 0; i < 4000 && (c.kept || i <= 100); i++ { // a drop comes by the 101st row
			r := c.row(i)
			want, seen := ref[tagged(r)]
			if !seen {
				want = uint32(len(ref))
				ref[tagged(r)] = want
			}
			if got := g.encodeRow(r); got != want {
				t.Fatalf("%s: row %d %v encodes to %d, want %d", c.name, i, r, got, want)
			}
		}
		if kept := g.m != nil; kept != c.kept {
			t.Errorf("%s: memo kept %v after %d rows, want %v", c.name, kept, len(g.t.Rows)-lo, c.kept)
		}
		putMemos(g.level)
	}
}
