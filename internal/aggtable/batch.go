// Bulk entry points: fold a chunk of rows (UpdateRows), a columnar
// tuple.Batch (UpdateBatch) or a tuple.PartialBatch (MergeBatch) with one
// call. They run the kernel UpdateRaw runs — hash the key, probe (findH,
// inlined), update in place, leave the loop only to claim a slot for a new
// group — once per record with no scratch between the steps, and return
// refusals as an index list: the caller takes the (cold) bound-refusal
// branch once per chunk, not once per tuple.
//
// An earlier version hashed the whole key column into a scratch column
// first, so the splitmix64 chain would pipeline across tuples, and the live
// scan side copied every chunk column-major to have a column to hash. On a
// private table that never paid (BenchmarkFold, one thread, 2^20 rows,
// ns/row, best of ten rounds): over 1,024 groups pre-hash + probe 14.3, this
// loop 10.1 from columns, 11.6 from rows, 10.9 as UpdateRaw per tuple; over
// 2^17 groups, where the probe misses cache, 52.5 against 52.9; the staging
// copy was 2–3 more. The core already overlaps one tuple's hash with the
// last one's probe; the column added a store and a load per row. Shared
// keeps its hash column (sharedbatch.go): it needs the hash to pick a
// stripe lock before it may probe.
//
// A record is refused iff its group is absent and the table already holds
// `bound` groups when that record is folded. Table folds in index order, so
// its refusal list is ascending; Shared folds stripe segments in stripe
// order and its list is a set with unspecified order.
//
// Owner-side entry points: FoldRows and FoldPartial are the merge phase's
// kernel, for the unbounded tables an owner folds into (kernel.Merge). They
// refuse nothing and fold min and max without a branch (the package
// comment says why the two sides differ).

package aggtable

import "parallelagg/internal/tuple"

// UpdateRows folds every tuple of ts into the table in index order. Refused
// indexes are appended to refused, which is returned; pass a
// capacity-reusing slice (refused[:0]) to stay at 0 allocs/op.
//
//aggvet:noalloc
func (t *Table) UpdateRows(ts []tuple.Tuple, refused []int) []int {
	t.alive()
	for i := range ts {
		k, v := ts[i].Key, ts[i].Val
		h := k.Hash()
		j, ok := t.findH(k, h)
		if ok {
			t.states[j].Update(v)
			continue
		}
		if j = t.claim(j, k, h); j < 0 {
			refused = append(refused, i)
			continue
		}
		t.states[j] = tuple.NewState(v)
	}
	return refused
}

// UpdateBatch is UpdateRows over a columnar batch.
//
//aggvet:noalloc
func (t *Table) UpdateBatch(b *tuple.Batch, refused []int) []int {
	t.alive()
	for i, k := range b.Keys {
		h := k.Hash()
		j, ok := t.findH(k, h)
		if ok {
			t.states[j].Update(b.Vals[i])
			continue
		}
		if j = t.claim(j, k, h); j < 0 {
			refused = append(refused, i)
			continue
		}
		t.states[j] = tuple.NewState(b.Vals[i])
	}
	return refused
}

// MergeBatch folds every partial of pb into the table in index order,
// with the same refusal contract as UpdateRows.
//
//aggvet:noalloc
func (t *Table) MergeBatch(pb *tuple.PartialBatch, refused []int) []int {
	t.alive()
	for i, k := range pb.Keys {
		h := k.Hash()
		j, ok := t.findH(k, h)
		if ok {
			t.states[j].Merge(pb.StateAt(i))
			continue
		}
		if j = t.claim(j, k, h); j < 0 {
			refused = append(refused, i)
			continue
		}
		t.states[j] = pb.StateAt(i)
	}
	return refused
}

// FoldRows folds every tuple of ts into the table, the owner-side kernel
// for raw tuples (see the package comment). The table must be unbounded.
//
//aggvet:noalloc
func (t *Table) FoldRows(ts []tuple.Tuple) {
	t.unbounded()
	for i := range ts {
		k := ts[i].Key
		h := k.Hash()
		j, ok := t.findH(k, h)
		if !ok {
			j = t.insertAtH(j, k, h)
			t.states[j] = tuple.NewState(ts[i].Val)
			continue
		}
		foldState(&t.states[j], tuple.NewState(ts[i].Val))
	}
}

// FoldPartial folds one partial into the table, the owner-side kernel for
// partials: FoldRows' probe and fold, with a partial's state for a raw
// tuple's. The table must be unbounded.
//
//aggvet:noalloc
func (t *Table) FoldPartial(p tuple.Partial) {
	t.unbounded()
	h := p.Key.Hash()
	j, ok := t.findH(p.Key, h)
	if !ok {
		t.states[t.insertAtH(j, p.Key, h)] = p.State
		return
	}
	foldState(&t.states[j], p.State)
}

// foldState is AggState.Merge without a branch: a raw value folds as its
// one-tuple state, whose constant count the compiler folds in.
//
//aggvet:noalloc
func foldState(s *tuple.AggState, o tuple.AggState) {
	s.Count += o.Count
	s.Sum += o.Sum
	s.Min = min(s.Min, o.Min)
	s.Max = max(s.Max, o.Max)
}

// unbounded panics on a released or bounded table: the owner-side kernel
// claims a slot for every new group and has no refusal to report.
//
//aggvet:noalloc
func (t *Table) unbounded() {
	t.alive()
	if t.bound > 0 {
		panic("aggtable: owner-side fold into a bounded Table")
	}
}
