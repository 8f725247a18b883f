package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"parallelagg/internal/live"
)

// shardCounts are the worker counts the sharded row pass is held to: one
// shard (the sequential pass), and two, three and seven.
var shardCounts = []int{1, 2, 3, 7}

// sameOverShards runs q with every shard count and wants results equal to
// one shard's, down to the first-seen cell of every group.
func sameOverShards(t *testing.T, name string, tab *Table, q Query) {
	t.Helper()
	var want *Result
	for _, w := range shardCounts {
		got, err := Execute(tab, q, live.Config{Workers: w, TableEntries: 4}, live.AdaptiveTwoPhase)
		if err != nil {
			t.Fatalf("%s, %d workers: %v", name, w, err)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d workers return %d rows, one returns %d", name, w, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
				t.Fatalf("%s: %d workers return row %d %v, one returns %v", name, w, i, got.Rows[i], want.Rows[i])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d workers return schema %v, one returns %v", name, w, got.Schema, want.Schema)
		}
	}
}

// The randomized differential's queries, and tables built to trip the
// reconcile, give byte-identical results over any number of shards.
func TestShardedMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		tab, q := randomQuery(seed)
		sameOverShards(t, fmt.Sprint("seed ", seed), tab, q)
	}

	// Key cells that are one key but not one Value — StrVal("") and
	// IntVal(0), a NULL with a Str or Int riding along, a Str with two
	// Ints — and more distinct cells than a dictionary's front holds, in
	// every key position, so the first cell seen of each group must come
	// from the right shard.
	pool := []Value{NullValue, {Null: true, Str: "n"}, {Null: true, Int: 3}, StrVal(""), IntVal(0),
		{Str: "x", Int: 1}, {Str: "x", Int: 2}, IntVal(5), StrVal("5")}
	for i := 0; i < frontLen; i++ {
		pool = append(pool, IntVal(int64(100+i)), StrVal(fmt.Sprint("s", i)))
	}
	rng := rand.New(rand.NewSource(1))
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "a", Type: String}, {Name: "b", Type: String}, {Name: "c", Type: String},
		{Name: "v", Type: Int64}, {Name: "row", Type: Int64},
	}}}
	for i := 0; i < 700; i++ {
		v := IntVal(int64(rng.Intn(9) - 4))
		if rng.Intn(6) == 0 {
			v = NullValue
		}
		// Cells drawn from a pool that widens with the row index: later
		// shards meet keys and variants earlier ones never did.
		cell := func() Value { return pool[rng.Intn(min(len(pool), 2+i/40))] }
		tab.Rows = append(tab.Rows, Row{cell(), cell(), cell(), v, IntVal(int64(i))})
	}
	aggs := []Agg{{Func: CountStar}, {Func: Sum, Col: "v"}, {Func: Min, Col: "v"},
		{Func: Count, Col: "v", Distinct: true}, {Func: Sum, Col: "v", Distinct: true}}
	n := int64(len(tab.Rows))
	// The same rows with every value shifted by 3/4 of MaxInt64: each
	// group's SUM crosses MaxInt64 and must wrap alike on every shard count.
	wrapping := &Table{Schema: tab.Schema}
	for _, r := range tab.Rows {
		r = slices.Clone(r)
		if !r[3].Null {
			r[3].Int += math.MaxInt64 / 4 * 3
		}
		wrapping.Rows = append(wrapping.Rows, r)
	}
	for _, c := range []struct {
		name  string
		q     Query
		table *Table
	}{
		{"three keys", Query{GroupBy: []string{"a", "b", "c"}, Aggs: aggs}, tab},
		{"one key", Query{GroupBy: []string{"c"}, Aggs: aggs}, tab},
		{"no key", Query{Aggs: aggs}, tab},
		{"DISTINCT only", Query{GroupBy: []string{"b", "a"}, Aggs: aggs[3:]}, tab},
		// Shard 0 of three (and of seven, shards 0-2) keeps no row.
		{"first shard empty", Query{GroupBy: []string{"a", "c"}, Aggs: aggs,
			Where: func(r Row) bool { return r[4].Int >= n/3 }}, tab},
		{"every shard empty", Query{GroupBy: []string{"a"}, Aggs: aggs,
			Where: func(r Row) bool { return false }}, tab},
		{"fewer rows than workers", Query{GroupBy: []string{"a", "b"}, Aggs: aggs},
			&Table{Schema: tab.Schema, Rows: tab.Rows[:3]}},
		{"no rows", Query{GroupBy: []string{"a"}, Aggs: aggs}, &Table{Schema: tab.Schema}},
		// No GROUP BY over no kept rows: one row, on every shard count.
		{"no key, every shard empty", Query{Aggs: aggs, Where: func(r Row) bool { return false }}, tab},
		{"no key, no rows", Query{Aggs: aggs}, &Table{Schema: tab.Schema}},
		{"sums that wrap", Query{GroupBy: []string{"a", "b"}, Aggs: aggs}, wrapping},
	} {
		sameOverShards(t, c.name, c.table, c.q)
	}
}

// A row of the wrong arity is reported by its index, the lowest one when
// several shards hold one, and ahead of a Where panic in a later shard.
func TestShardedArityErrorNamesLowestRow(t *testing.T) {
	const rows = 100 // two workers: rows 0-49 are shard 0, 50-99 shard 1
	for _, bad := range [][]int{{70}, {20, 70}, {49, 50}, {0, 99}} {
		tab := lineitemTable(rows, 1)
		for _, i := range bad {
			tab.Rows[i] = tab.Rows[i][:2]
		}
		tab.Rows[80][2] = IntVal(-1) // Where panics here, past every bad row
		q := lineitemQuery
		q.Where = func(r Row) bool {
			if r[2].Int < 0 {
				panic("row 80")
			}
			return true
		}
		for _, w := range shardCounts {
			want := fmt.Sprintf("query: row %d has 2 cells, schema has 4 columns", bad[0])
			if _, err := Execute(tab, q, live.Config{Workers: w}, live.AdaptiveTwoPhase); err == nil || err.Error() != want {
				t.Errorf("bad rows %v, %d workers: err = %v, want %q", bad, w, err, want)
			}
		}
	}
}

// A Where that panics in a shard other than the caller's reaches the
// caller's goroutine, where it can be recovered.
func TestWherePanicReachesCaller(t *testing.T) {
	tab := lineitemTable(100, 1)
	tab.Rows[80][2] = IntVal(-1)
	q := lineitemQuery
	q.Where = func(r Row) bool {
		if r[2].Int < 0 {
			panic("row 80")
		}
		return true
	}
	for _, w := range shardCounts {
		func() {
			defer func() {
				if p := recover(); p != "row 80" {
					t.Errorf("%d workers: recovered %v, want the Where panic", w, p)
				}
			}()
			_, err := Execute(tab, q, live.Config{Workers: w}, live.AdaptiveTwoPhase)
			t.Errorf("%d workers: Execute returned (%v) past a panicking Where", w, err)
		}()
	}
}

// The passes' tuple buffers come from a process-wide pool: queries that run
// at once, of sizes that share a buffer length and of sizes that do not,
// must each get buffers of their own. Eight goroutines run the randomized
// differential's queries and the spine's shape on one to three workers,
// each in a different order, and every result must equal that query's
// result run alone.
func TestConcurrentExecuteSharesNoBuffer(t *testing.T) {
	type job struct {
		tab  *Table
		q    Query
		cfg  live.Config
		want *Result
	}
	var jobs []job
	for seed := int64(0); seed < 24; seed++ {
		tab, q := randomQuery(seed)
		jobs = append(jobs, job{tab: tab, q: q, cfg: live.Config{Workers: 1 + int(seed%3), TableEntries: 4}})
	}
	for w := 1; w <= 3; w++ {
		jobs = append(jobs, job{tab: lineitemTable(1<<12+w, int64(w)), q: lineitemQuery, cfg: live.Config{Workers: w}})
	}
	for i := range jobs {
		res, err := Execute(jobs[i].tab, jobs[i].q, jobs[i].cfg, live.AdaptiveTwoPhase)
		if err != nil {
			t.Fatalf("job %d alone: %v", i, err)
		}
		jobs[i].want = res
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range jobs {
					j := &jobs[(k+3*g+round)%len(jobs)]
					got, err := Execute(j.tab, j.q, j.cfg, live.AdaptiveTwoPhase)
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					if !reflect.DeepEqual(got, j.want) {
						t.Errorf("goroutine %d, %d workers: %d rows differ from the same query run alone", g, j.cfg.Workers, len(got.Rows))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
