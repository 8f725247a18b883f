package query

import (
	"fmt"
	"math/rand"
	"reflect"
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
		if got := g.encode(r); got != want {
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
		res, err := Execute(tab, Query{GroupBy: []string{"a", "b"}, Aggs: []Agg{{Func: CountStar}}},
			live.Config{Workers: 1 + round%3}, live.AdaptiveTwoPhase)
		if err != nil {
			t.Fatal(err)
		}
		// The sequential oracle: counts per tagged key, and each column's
		// first cell seen per tagged cell, which is what a group shows.
		count, first := map[string]int64{}, [2]map[string]Value{{}, {}}
		for _, r := range tab.Rows {
			count[tagged(r[:2])]++
			for c := range first {
				if _, ok := first[c][tagged(r[c:c+1])]; !ok {
					first[c][tagged(r[c:c+1])] = r[c]
				}
			}
		}
		if len(res.Rows) != len(count) {
			t.Fatalf("round %d: %d groups, oracle %d", round, len(res.Rows), len(count))
		}
		for _, r := range res.Rows {
			want := Row{first[0][tagged(r[:1])], first[1][tagged(r[1:2])], IntVal(count[tagged(r[:2])])}
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("round %d: row %v, oracle %v", round, r, want)
			}
		}
	}
}
