package aggtable

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"parallelagg/internal/tuple"
)

// sortedDrain drains a table into key-sorted partials for comparison.
func sortedDrain(ps []tuple.Partial) []tuple.Partial {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Key < ps[j].Key })
	return ps
}

func randomBatch(rng *rand.Rand, n, keyspace int) *tuple.Batch {
	b := tuple.NewBatch(n)
	for i := 0; i < n; i++ {
		b.Append(tuple.Key(rng.Intn(keyspace)), int64(rng.Intn(201)-100))
	}
	return b
}

// TestUpdateBatchMatchesScalar is the core differential: folding a batch
// must leave the table byte-identical to folding its tuples one by one,
// including which tuples a bounded table refuses.
func TestUpdateBatchMatchesScalar(t *testing.T) {
	for _, bound := range []int{0, 1, 7, 64, 1000} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			b := randomBatch(rng, 1+rng.Intn(2048), 1+rng.Intn(512))

			oracle := New(bound)
			var wantRefused []int
			for i := 0; i < b.Len(); i++ {
				if !oracle.UpdateRaw(b.At(i)) {
					wantRefused = append(wantRefused, i)
				}
			}

			tab := New(bound)
			gotRefused := tab.UpdateBatch(b, nil)

			if len(gotRefused) != len(wantRefused) {
				t.Fatalf("bound %d seed %d: %d refusals, want %d", bound, seed, len(gotRefused), len(wantRefused))
			}
			for i := range gotRefused {
				if gotRefused[i] != wantRefused[i] {
					t.Fatalf("bound %d seed %d: refusal %d = index %d, want %d", bound, seed, i, gotRefused[i], wantRefused[i])
				}
			}
			want := sortedDrain(oracle.Drain())
			got := sortedDrain(tab.Drain())
			if len(got) != len(want) {
				t.Fatalf("bound %d seed %d: %d groups, want %d", bound, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bound %d seed %d: group %d = %+v, want %+v", bound, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMergeBatchMatchesScalar(t *testing.T) {
	for _, bound := range []int{0, 5, 100} {
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			n := 1 + rng.Intn(1024)
			pb := tuple.NewPartialBatch(n)
			for i := 0; i < n; i++ {
				p := tuple.Partial{Key: tuple.Key(rng.Intn(256)), State: tuple.NewState(int64(rng.Intn(50)))}
				if rng.Intn(2) == 0 {
					p.State.Update(int64(rng.Intn(50) - 25))
				}
				pb.Append(p)
			}

			oracle := New(bound)
			var wantRefused []int
			for i := 0; i < pb.Len(); i++ {
				if !oracle.MergePartial(pb.At(i)) {
					wantRefused = append(wantRefused, i)
				}
			}
			tab := New(bound)
			gotRefused := tab.MergeBatch(pb, nil)

			if len(gotRefused) != len(wantRefused) {
				t.Fatalf("bound %d seed %d: %d refusals, want %d", bound, seed, len(gotRefused), len(wantRefused))
			}
			for i := range gotRefused {
				if gotRefused[i] != wantRefused[i] {
					t.Fatalf("bound %d seed %d: refusal mismatch at %d", bound, seed, i)
				}
			}
			want := sortedDrain(oracle.Drain())
			got := sortedDrain(tab.Drain())
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bound %d seed %d: group %d = %+v, want %+v", bound, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// Table refusals must come back in ascending batch-index order (the
// documented contract; live's overflow spill relies on index validity).
func TestUpdateBatchRefusalOrder(t *testing.T) {
	b := tuple.NewBatch(8)
	for i := 0; i < 8; i++ {
		b.Append(tuple.Key(i), 1)
	}
	tab := New(2)
	refused := tab.UpdateBatch(b, nil)
	if len(refused) != 6 {
		t.Fatalf("refused %d tuples, want 6", len(refused))
	}
	for i := 1; i < len(refused); i++ {
		if refused[i] <= refused[i-1] {
			t.Fatalf("refusals not ascending: %v", refused)
		}
	}
	// A refused key that is already resident must fold, not refuse.
	b2 := tuple.NewBatch(2)
	b2.Append(0, 5) // resident
	b2.Append(99, 5)
	refused = tab.UpdateBatch(b2, refused[:0])
	if len(refused) != 1 || refused[0] != 1 {
		t.Fatalf("refusals = %v, want [1]", refused)
	}
	if st, ok := tab.Get(0); !ok || st.Count != 2 {
		t.Fatalf("resident group did not fold: %+v, %v", st, ok)
	}
}

// Shared batch fold vs the scalar Shared path: same drains, and the
// refusal list — an unordered set — must select the same refusal COUNT
// and leave the same groups resident under the global bound.
func TestSharedUpdateBatchMatchesScalar(t *testing.T) {
	for _, bound := range []int{0, 16, 500} {
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(200 + seed))
			b := randomBatch(rng, 1+rng.Intn(4096), 1+rng.Intn(600))

			oracle := NewShared(bound, 16)
			refusedScalar := 0
			for i := 0; i < b.Len(); i++ {
				if !oracle.UpdateRaw(b.At(i)) {
					refusedScalar++
				}
			}

			sh := NewShared(bound, 16)
			var sc BatchScratch
			refused := sh.UpdateBatch(&sc, b, nil)

			// Single-goroutine fold order differs between the two paths, so
			// WHICH new groups get the bound's last slots can differ — but the
			// bound itself cannot: resident group count and per-group states
			// for groups both tables admitted must agree.
			if bound > 0 && sh.Len() != oracle.Len() {
				t.Fatalf("bound %d seed %d: %d resident groups, scalar %d", bound, seed, sh.Len(), oracle.Len())
			}
			if bound == 0 {
				if len(refused) != refusedScalar || refusedScalar != 0 {
					t.Fatalf("unbounded refusals: batch %d scalar %d", len(refused), refusedScalar)
				}
				want := sortedDrain(oracle.Drain())
				got := sortedDrain(sh.Partials())
				if len(got) != len(want) {
					t.Fatalf("bound 0 seed %d: %d groups, want %d", seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("bound 0 seed %d: group %d = %+v, want %+v", seed, i, got[i], want[i])
					}
				}
			}
			// Refused indexes must each name a non-resident group at quiescence
			// or a group whose state excludes the refused tuple.
			total := int64(0)
			for _, p := range sh.Drain() {
				total += p.State.Count
			}
			if got := total + int64(len(refused)); got != int64(b.Len()) {
				t.Fatalf("bound %d seed %d: %d folded + %d refused != %d tuples", bound, seed, total, len(refused), b.Len())
			}
		}
	}
}

func TestSharedMergeBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2048
	pb := tuple.NewPartialBatch(n)
	for i := 0; i < n; i++ {
		pb.Append(tuple.Partial{Key: tuple.Key(rng.Intn(300)), State: tuple.NewState(int64(rng.Intn(40)))})
	}
	oracle := NewShared(0, 8)
	for i := 0; i < pb.Len(); i++ {
		oracle.MergePartial(pb.At(i))
	}
	sh := NewShared(0, 8)
	var sc BatchScratch
	if refused := sh.MergeBatch(&sc, pb, nil); len(refused) != 0 {
		t.Fatalf("unbounded merge refused %d", len(refused))
	}
	want := sortedDrain(oracle.Drain())
	got := sortedDrain(sh.Drain())
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("group %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Concurrent batch folds from many goroutines (run under -race in CI):
// per-stripe segments must serialize correctly and the global bound must
// hold in every interleaving.
func TestSharedUpdateBatchConcurrent(t *testing.T) {
	const (
		workers = 8
		batches = 16
		perB    = 1024
		bound   = 700
	)
	sh := NewShared(bound, 16)
	var refusedTotal sync.Map
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var sc BatchScratch
			var refused []int
			count := 0
			for bi := 0; bi < batches; bi++ {
				b := randomBatch(rng, perB, 1000)
				refused = sh.UpdateBatch(&sc, b, refused[:0])
				count += len(refused)
			}
			refusedTotal.Store(w, count)
		}()
	}
	wg.Wait()
	if sh.Len() > bound {
		t.Fatalf("table holds %d groups over bound %d", sh.Len(), bound)
	}
	folded := int64(0)
	for _, p := range sh.Drain() {
		folded += p.State.Count
	}
	refused := int64(0)
	refusedTotal.Range(func(_, v any) bool { refused += int64(v.(int)); return true })
	if folded+refused != workers*batches*perB {
		t.Fatalf("%d folded + %d refused != %d tuples", folded, refused, workers*batches*perB)
	}
}

// Alloc pins for the batch data plane, same contract as the scalar pins:
// once scratch and table have warmed, a batch fold allocates nothing.

func TestAllocsPinUpdateBatch(t *testing.T) {
	tab := New(0)
	b := tuple.NewBatch(1024)
	for i := 0; i < 1024; i++ {
		b.Append(tuple.Key(i%512), 1)
	}
	refused := make([]int, 0, 1024)
	tab.UpdateBatch(b, refused[:0]) // warm table
	allocs := testing.AllocsPerRun(1000, func() {
		refused = tab.UpdateBatch(b, refused[:0])
	})
	if allocs != 0 {
		t.Errorf("steady-state UpdateBatch allocates %.1f per op, want 0", allocs)
	}
}

// UpdateRows is the live scan side's fold, and its tables live for one query:
// with no scratch to size, the very first call on a presized table allocates
// nothing, and neither does any later one on a warm table.
func TestAllocsPinUpdateRows(t *testing.T) {
	ts := make([]tuple.Tuple, 1024)
	for i := range ts {
		ts[i] = tuple.Tuple{Key: tuple.Key(i % 512), Val: 1}
	}
	refused := make([]int, 0, 1024)
	tabs := make([]*Table, 101)
	for i := range tabs {
		tabs[i] = NewSized(256, 256) // half the keys fit: the refusal list is exercised too
	}
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		refused = tabs[next].UpdateRows(ts, refused[:0])
		next++
	})
	if allocs != 0 || len(refused) != 512 {
		t.Errorf("first UpdateRows on a presized table allocates %.1f per op and refused %d, want 0 and 512", allocs, len(refused))
	}
	allocs = testing.AllocsPerRun(1000, func() {
		refused = tabs[0].UpdateRows(ts, refused[:0])
	})
	if allocs != 0 {
		t.Errorf("steady-state UpdateRows allocates %.1f per op, want 0", allocs)
	}
}

func TestAllocsPinMergeBatch(t *testing.T) {
	tab := New(0)
	pb := tuple.NewPartialBatch(1024)
	for i := 0; i < 1024; i++ {
		pb.Append(tuple.Partial{Key: tuple.Key(i % 512), State: tuple.NewState(1)})
	}
	refused := make([]int, 0, 1024)
	tab.MergeBatch(pb, refused[:0])
	allocs := testing.AllocsPerRun(1000, func() {
		refused = tab.MergeBatch(pb, refused[:0])
	})
	if allocs != 0 {
		t.Errorf("steady-state MergeBatch allocates %.1f per op, want 0", allocs)
	}
}

// The owner-side kernel on a warm table allocates nothing, and a bounded
// table, whose refusals it has no way to report, is refused outright.
func TestAllocsPinFoldRows(t *testing.T) {
	ts := make([]tuple.Tuple, 1024)
	for i := range ts {
		ts[i] = tuple.Tuple{Key: tuple.Key(i % 512), Val: int64(i)}
	}
	tab := New(0)
	tab.FoldRows(ts) // warm table
	allocs := testing.AllocsPerRun(1000, func() {
		tab.FoldRows(ts)
		tab.FoldPartial(tuple.Partial{Key: 7, State: tuple.NewState(-1)})
	})
	if allocs != 0 {
		t.Errorf("steady-state FoldRows and FoldPartial allocate %.1f per op, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Error("FoldRows into a bounded table did not panic")
		}
	}()
	NewSized(8, 8).FoldRows(ts)
}

func TestAllocsPinSharedUpdateBatch(t *testing.T) {
	sh := NewShared(0, 16)
	b := tuple.NewBatch(1024)
	for i := 0; i < 1024; i++ {
		b.Append(tuple.Key(i%512), 1)
	}
	var sc BatchScratch
	refused := make([]int, 0, 1024)
	sh.UpdateBatch(&sc, b, refused[:0]) // warm stripes + scratch
	allocs := testing.AllocsPerRun(1000, func() {
		refused = sh.UpdateBatch(&sc, b, refused[:0])
	})
	if allocs != 0 {
		t.Errorf("steady-state Shared.UpdateBatch allocates %.1f per op, want 0", allocs)
	}
}

func TestAllocsPinSharedUpdateBatchContended(t *testing.T) {
	sh := NewShared(0, 16)
	b := tuple.NewBatch(1024)
	for i := 0; i < 1024; i++ {
		b.Append(tuple.Key(i%512), 1)
	}
	var sc BatchScratch
	refused := make([]int, 0, 1024)
	sh.UpdateBatch(&sc, b, refused[:0])
	allocs := testing.AllocsPerRun(1000, func() {
		refused, _ = sh.UpdateBatchContended(&sc, b, refused[:0])
	})
	if allocs != 0 {
		t.Errorf("steady-state Shared.UpdateBatchContended allocates %.1f per op, want 0", allocs)
	}
}

func TestAllocsPinSharedMergeBatch(t *testing.T) {
	sh := NewShared(0, 16)
	pb := tuple.NewPartialBatch(1024)
	for i := 0; i < 1024; i++ {
		pb.Append(tuple.Partial{Key: tuple.Key(i % 512), State: tuple.NewState(1)})
	}
	var sc BatchScratch
	refused := make([]int, 0, 1024)
	sh.MergeBatch(&sc, pb, refused[:0])
	allocs := testing.AllocsPerRun(1000, func() {
		refused = sh.MergeBatch(&sc, pb, refused[:0])
	})
	if allocs != 0 {
		t.Errorf("steady-state Shared.MergeBatch allocates %.1f per op, want 0", allocs)
	}
}

// FuzzBatchUpdate folds every input three ways into equally bounded tables —
// UpdateRaw per tuple (the oracle), UpdateBatch and UpdateRows — over
// fuzzer-chosen keys, values, bound regimes and split points: a chunk folded
// as two sub-chunks at any cut must produce the oracle's refusal indexes
// exactly, and leave Len() and Partials() identical to tuple-at-a-time folds.
// The owner-side kernel, which refuses nothing, is held to the same oracle
// unbounded: FoldRows over both sub-chunks, and FoldRows over the first with
// the second arriving as the partials a scan table sends (FoldPartial).
func FuzzBatchUpdate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 2, 2})             // unbounded, two keys
	f.Add([]byte{3, 1, 1, 1, 2, 2, 3, 3, 4, 4}) // bound 3: last key refused
	f.Add([]byte{1, 2, 9, 1, 9, 2, 8, 3})       // bound 1, split mid-batch
	f.Add([]byte{15, 255, 0, 0, 0, 1, 0, 2, 1, 0})
	// Bound 2, cut at 3: the table fills inside the first sub-chunk, which
	// refuses its last tuple; the second starts full, folds residents and refuses the rest.
	f.Add([]byte{2, 3, 5, 1, 6, 2, 7, 3, 5, 4, 8, 5, 6, 6, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		bound := int(data[0]) % 16 // 0 = unbounded
		split := int(data[1])
		rest := data[2:]
		n := len(rest) / 2
		if n > 512 {
			n = 512
		}
		ts := make([]tuple.Tuple, n)
		for i := range ts {
			ts[i] = tuple.Tuple{Key: tuple.Key(rest[2*i] % 64), Val: int64(int8(rest[2*i+1]))}
		}
		b := tuple.NewBatch(n)
		b.AppendRows(ts)

		oracle := New(bound)
		var wantRefused []int
		for i, tp := range ts {
			if !oracle.UpdateRaw(tp) {
				wantRefused = append(wantRefused, i)
			}
		}

		cut := 0
		if n > 0 {
			cut = split % (n + 1)
		}
		b1 := &tuple.Batch{Keys: b.Keys[:cut], Vals: b.Vals[:cut]}
		b2 := &tuple.Batch{Keys: b.Keys[cut:], Vals: b.Vals[cut:]}
		batchTab, rowsTab := New(bound), New(bound)
		folds := []struct {
			name    string
			tab     *Table
			refused [2][]int // per sub-chunk, indexes relative to it
		}{
			{"UpdateBatch", batchTab, [2][]int{batchTab.UpdateBatch(b1, nil), batchTab.UpdateBatch(b2, nil)}},
			{"UpdateRows", rowsTab, [2][]int{rowsTab.UpdateRows(ts[:cut], nil), rowsTab.UpdateRows(ts[cut:], nil)}},
		}
		same := func(name string, tab, oracle *Table) {
			t.Helper()
			if tab.Len() != oracle.Len() {
				t.Fatalf("%s bound %d cut %d: Len %d, want %d", name, bound, cut, tab.Len(), oracle.Len())
			}
			have, want := tab.Partials(), oracle.Partials()
			if len(have) != len(want) {
				t.Fatalf("%s bound %d cut %d: %d groups, want %d", name, bound, cut, len(have), len(want))
			}
			for i := range want {
				if have[i] != want[i] {
					t.Fatalf("%s bound %d cut %d: group %d = %+v, want %+v", name, bound, cut, i, have[i], want[i])
				}
			}
		}
		for _, fd := range folds {
			got := fd.refused[0]
			for _, ix := range fd.refused[1] {
				got = append(got, ix+cut)
			}
			if len(got) != len(wantRefused) {
				t.Fatalf("%s bound %d cut %d: %d refusals, want %d", fd.name, bound, cut, len(got), len(wantRefused))
			}
			for i := range got {
				if got[i] != wantRefused[i] {
					t.Fatalf("%s bound %d cut %d: refusal %d = %d, want %d", fd.name, bound, cut, i, got[i], wantRefused[i])
				}
			}
			same(fd.name, fd.tab, oracle)
		}

		all := New(0)
		for _, tp := range ts {
			all.UpdateRaw(tp)
		}
		rows, mixed, scan := New(0), New(0), New(0)
		rows.FoldRows(ts[:cut])
		rows.FoldRows(ts[cut:])
		same("FoldRows", rows, all)
		mixed.FoldRows(ts[:cut])
		scan.UpdateRows(ts[cut:], nil)
		for _, p := range scan.Partials() {
			mixed.FoldPartial(p)
		}
		same("FoldRows+FoldPartial", mixed, all)
	})
}
