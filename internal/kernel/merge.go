package kernel

import (
	"fmt"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/tuple"
)

// Merge is one owner's table, the merge side of paper §3.2: it folds the
// raw tuples and partials routed to its groups, whatever algorithm sent
// them, in any order to the sequential fold, and refuses nothing. live runs
// one per worker, dist one per node and, tolerant, one per stream. Every
// batch folds on arrival through aggtable's owner-side kernel
// (Table.FoldRows and FoldPartial), which updates min and max without a
// branch: an owner's groups are cold, a few tuples each.
type Merge struct {
	table    *aggtable.Table
	reserved int
}

// NewMerge returns an empty Merge.
func NewMerge() *Merge { return &Merge{table: aggtable.New(0)} }

// Raw folds raw tuples.
//
//aggvet:noalloc
func (m *Merge) Raw(ts []tuple.Tuple) { m.table.FoldRows(ts) }

// Partials folds partials.
//
//aggvet:noalloc
func (m *Merge) Partials(ps []tuple.Partial) {
	for _, p := range ps {
		m.table.FoldPartial(p)
	}
}

// Reserve makes room for groups groups in all. The largest target wins,
// not the sum, as one owner's flushes mostly carry the same groups; the
// table grows to it in one rehash and never shrinks.
func (m *Merge) Reserve(groups int) {
	if groups <= m.reserved {
		return
	}
	m.reserved = groups
	m.table.Reserve(m.reserved - m.table.Len())
}

// Pour folds into dst the groups whose range (Key.Dest over len(keep))
// keep marks, and releases m. dst reserves m's length first: a slot-order
// walk into an array that doubles under it is quadratic (DESIGN.md §10).
func (m *Merge) Pour(dst *Merge, keep []bool) {
	dst.Reserve(m.table.Len())
	m.table.Each(func(k tuple.Key, s tuple.AggState) {
		if keep[k.Dest(len(keep))] {
			dst.table.FoldPartial(tuple.Partial{Key: k, State: s})
		}
	})
	m.Release()
}

// Release returns the table's memory to its pool.
func (m *Merge) Release() {
	m.table.Release()
	m.table = nil
}

// Table is the folded groups; nil once released.
func (m *Merge) Table() *aggtable.Table { return m.table }

// Reserved is the largest reservation target m was given.
func (m *Merge) Reserved() int { return m.reserved }

// Note is the span note both engines end a merge with: the groups, the
// reservation and the slots the table ended at.
func (m *Merge) Note() string {
	return fmt.Sprintf("%d groups, reserved %d, %d slots", m.table.Len(), m.reserved, m.table.Slots())
}

// Assemble pours disjoint owner tables (nil ones skipped) into one result
// map with room for extra more groups, one assign per group, then a count
// check, and releases them. If two tables share a key, a second walk names
// the smallest such key and the index of the second table, the same on
// every run.
func Assemble(tables []*aggtable.Table, extra int) (map[tuple.Key]tuple.AggState, error) {
	defer func() {
		for _, t := range tables {
			if t != nil {
				t.Release()
			}
		}
	}()
	total := 0
	for _, t := range tables {
		if t != nil {
			total += t.Len()
		}
	}
	groups := make(map[tuple.Key]tuple.AggState, total+extra)
	for _, t := range tables {
		if t != nil {
			t.Each(func(k tuple.Key, s tuple.AggState) { groups[k] = s })
		}
	}
	if len(groups) == total {
		return groups, nil
	}
	clear(groups)
	dup, second := tuple.Key(0), -1
	for i, t := range tables {
		if t != nil {
			t.Each(func(k tuple.Key, s tuple.AggState) {
				if _, ok := groups[k]; ok && (second < 0 || k < dup) {
					dup, second = k, i
				}
				groups[k] = s
			})
		}
	}
	return nil, fmt.Errorf("group %d produced by two owners (second: %d)", dup, second)
}
