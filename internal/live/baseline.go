package live

import (
	"cmp"
	"slices"

	"parallelagg/internal/tuple"
)

// mapTable is the builtin-map groupTable the engine used before
// internal/aggtable existed, frozen here as a differential-testing
// oracle: the property tests run both implementations over the same
// inputs and require identical results.
type mapTable struct {
	m     map[tuple.Key]tuple.AggState
	bound int
}

func newMapTable(bound int) *mapTable {
	return &mapTable{m: make(map[tuple.Key]tuple.AggState), bound: bound}
}

func (t *mapTable) Len() int { return len(t.m) }

func (t *mapTable) UpdateRaw(tp tuple.Tuple) bool {
	if s, ok := t.m[tp.Key]; ok {
		s.Update(tp.Val)
		t.m[tp.Key] = s
		return true
	}
	if t.bound > 0 && len(t.m) >= t.bound {
		return false
	}
	t.m[tp.Key] = tuple.NewState(tp.Val)
	return true
}

func (t *mapTable) MergePartial(p tuple.Partial) bool {
	if s, ok := t.m[p.Key]; ok {
		s.Merge(p.State)
		t.m[p.Key] = s
		return true
	}
	if t.bound > 0 && len(t.m) >= t.bound {
		return false
	}
	t.m[p.Key] = p.State
	return true
}

// UpdateBatch is the batch entry point, implemented as the scalar loop:
// the baseline stays a baseline. Refusal contract as aggtable's.
func (t *mapTable) UpdateBatch(b *tuple.Batch, refused []int) []int {
	for i := range b.Keys {
		if !t.UpdateRaw(b.At(i)) {
			refused = append(refused, i)
		}
	}
	return refused
}

// MergeBatch is the batch merge entry point, as the scalar loop.
func (t *mapTable) MergeBatch(pb *tuple.PartialBatch, refused []int) []int {
	for i := 0; i < pb.Len(); i++ {
		if !t.MergePartial(pb.At(i)) {
			refused = append(refused, i)
		}
	}
	return refused
}

func (t *mapTable) Drain() []tuple.Partial {
	out := make([]tuple.Partial, 0, len(t.m))
	for k, s := range t.m {
		out = append(out, tuple.Partial{Key: k, State: s})
	}
	slices.SortFunc(out, func(a, b tuple.Partial) int { return cmp.Compare(a.Key, b.Key) })
	t.m = make(map[tuple.Key]tuple.AggState)
	return out
}

func (t *mapTable) Each(fn func(tuple.Key, tuple.AggState)) {
	for k, s := range t.m {
		fn(k, s)
	}
}

func (t *mapTable) OccupancyPermille() int {
	if t.bound > 0 {
		return 1000 * len(t.m) / t.bound
	}
	return 0
}
