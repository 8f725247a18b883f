// Batch entry points: fold a whole columnar tuple.Batch/PartialBatch
// with one call. Two things make this faster than a loop of UpdateRaw:
//
//   - Pre-hash/probe split: the key column is hashed into a scratch
//     column in one tight loop, so the splitmix64 chain (five dependent
//     ALU ops) pipelines across tuples instead of serializing in front
//     of every probe; the probe loop then runs with hashes in hand.
//   - Refusals come back as an index list instead of a per-call bool,
//     so the caller branches once per batch, not once per tuple, on the
//     (cold) bound-refusal path.
//
// The refusal contract is the scalar one, batch-shaped: a tuple is
// refused iff its group is absent and the table already holds `bound`
// groups at the moment that tuple is folded. Tuples of a batch fold in
// index order on Table, so the refusal list is ascending; Shared folds
// stripe segments in stripe order (see sharedbatch.go) and its refusal
// list is a set with unspecified order.

package aggtable

import "parallelagg/internal/tuple"

// ReserveBatch sizes the pre-hash scratch for batches of up to n records,
// so a table that lives for one query does not grow it by doubling.
func (t *Table) ReserveBatch(n int) { t.hashes = make([]uint64, 0, n) }

// UpdateBatch folds every tuple of b into the table in index order.
// Refused indexes (group absent and table at bound) are appended to
// refused, which is returned; pass a capacity-reusing slice
// (refused[:0]) to stay at 0 allocs/op steady state.
//
//aggvet:noalloc
func (t *Table) UpdateBatch(b *tuple.Batch, refused []int) []int {
	t.hashes = t.hashes[:0]
	for _, k := range b.Keys {
		t.hashes = append(t.hashes, k.Hash())
	}
	for i, k := range b.Keys {
		h := t.hashes[i]
		j, ok := t.findH(k, h)
		if ok {
			t.states[j].Update(b.Vals[i])
			continue
		}
		if t.bound > 0 && t.used >= t.bound {
			refused = append(refused, i)
			continue
		}
		j = t.insertAtH(j, k, h)
		t.states[j] = tuple.NewState(b.Vals[i])
	}
	return refused
}

// MergeBatch folds every partial of pb into the table in index order,
// with the same refusal contract and scratch discipline as UpdateBatch.
//
//aggvet:noalloc
func (t *Table) MergeBatch(pb *tuple.PartialBatch, refused []int) []int {
	t.hashes = t.hashes[:0]
	for _, k := range pb.Keys {
		t.hashes = append(t.hashes, k.Hash())
	}
	for i, k := range pb.Keys {
		h := t.hashes[i]
		j, ok := t.findH(k, h)
		if ok {
			t.states[j].Merge(pb.StateAt(i))
			continue
		}
		if t.bound > 0 && t.used >= t.bound {
			refused = append(refused, i)
			continue
		}
		j = t.insertAtH(j, k, h)
		t.states[j] = pb.StateAt(i)
	}
	return refused
}
