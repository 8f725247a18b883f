package live

import (
	"parallelagg/internal/aggtable"
	"parallelagg/internal/tuple"
)

// oracleTable is what the differential tests' hand-written folds need of a
// bounded aggregation table: the per-tuple contract, nothing bulk.
// Update/Merge return false when the key is absent and the table is at its
// bound (0 = unbounded).
type oracleTable interface {
	UpdateRaw(tuple.Tuple) bool
	MergePartial(tuple.Partial) bool
	Each(func(tuple.Key, tuple.AggState))
}

// mapTable is the builtin-map table the engine ran on before
// internal/aggtable existed, kept as the oracle that shares no code with
// the tables under test.
type mapTable struct {
	m     map[tuple.Key]tuple.AggState
	bound int
}

func newMapTable(bound int) oracleTable {
	return &mapTable{m: make(map[tuple.Key]tuple.AggState), bound: bound}
}

func newAggTable(bound int) oracleTable { return aggtable.New(bound) }

func (t *mapTable) UpdateRaw(tp tuple.Tuple) bool {
	return t.MergePartial(tuple.Partial{Key: tp.Key, State: tuple.NewState(tp.Val)})
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

func (t *mapTable) Each(fn func(tuple.Key, tuple.AggState)) {
	for k, s := range t.m {
		fn(k, s)
	}
}

// sequentialA2P is the adaptive two-phase algorithm with no engine around it:
// every partition folds tuple by tuple into its own table of bound entries,
// what that table refuses goes raw to the one unbounded global table, and the
// local tables are merged in after it.
func sequentialA2P(parts [][]tuple.Tuple, bound int, newTable func(bound int) oracleTable) map[tuple.Key]tuple.AggState {
	global := newTable(0)
	for _, part := range parts {
		local := newTable(bound)
		for _, tp := range part {
			if !local.UpdateRaw(tp) {
				global.UpdateRaw(tp)
			}
		}
		local.Each(func(k tuple.Key, s tuple.AggState) { global.MergePartial(tuple.Partial{Key: k, State: s}) })
	}
	out := map[tuple.Key]tuple.AggState{}
	global.Each(func(k tuple.Key, s tuple.AggState) { out[k] = s })
	return out
}
