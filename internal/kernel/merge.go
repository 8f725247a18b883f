package kernel

import (
	"fmt"
	"math/bits"
	"sync"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/tuple"
)

const (
	// stageSlots is the cache budget: a Merge whose reservation needs a
	// slot array larger than this, 2.7 MB, for more than 53,248 groups,
	// stages its raw tuples (DESIGN.md §14 "Folding in cache-sized
	// regions"). Set from BenchmarkMergeRaw, one core of a 2-vCPU Xeon with
	// 2 MB of L2, median ns/row of eight rounds, staged over direct, two
	// sweeps: 1.19–1.20 at 2^13 groups (2^14 slots), 1.08 at 2^15 (2^16
	// slots), 1.06–1.08 at 2^16 (2^17 slots), 0.92–0.94 at 2^17 and
	// 0.77–0.79 at 2^18. Beside a scan, on dist_loop's 2^17-slot tables,
	// staging cut a query's CPU by about 8 % where a 2^17-slot budget,
	// which leaves them direct, cut nothing; so the crossover is taken at
	// 2^17 slots, just past this budget.
	stageSlots = 1 << 16

	// regionBits is log2 of the stage's partitions, 32: each covers a
	// contiguous 1/32 of the slot array, 4,096 slots (168 KB) at 2^17,
	// which stays in L2 while it folds. 64 partitions measured the same.
	regionBits = 5
	regions    = 1 << regionBits
)

// Merge is one owner's table, the merge side of paper §3.2: it folds the
// raw tuples and partials routed to its groups, whatever algorithm sent
// them, in any order to the sequential fold, and refuses nothing. live runs
// one per worker, dist one per node and, tolerant, one per stream.
//
// A Merge reserved past stageSlots stages raw tuples instead of folding
// them on arrival: Raw copies each into the partition of its home slot's
// region, and a partition folds when its window is full, so the fold
// stays in one region of the table. The stage holds as many tuples as the
// table has slots, 16 B a slot, in 32 equal windows. Table and Pour fold
// what is staged, Release drops it; nothing else sees a staged tuple.
type Merge struct {
	table    *aggtable.Table
	reserved int

	staging bool   // the reservation is past stageSlots
	stage   *stage // nil until a staging Raw takes one from the pool
	staged  int    // raw tuples staged
	folds   int    // partitions folded
}

// stage is the memory staged tuples live in: partition r holds
// buf[r*w : ends[r]], where w = len(buf)/regions is its window. It is
// pooled like a table's slab, so a query that stages allocates nothing
// once one has run.
type stage struct {
	buf  []tuple.Tuple
	ends [regions]int
}

// window is each partition's share of the stage, a power of two.
func (s *stage) window() int { return len(s.buf) / regions }

// stagePools holds free stages, indexed by log2 of their length.
var stagePools [64]sync.Pool

// getStage returns a stage of n tuples (a power of two).
//
//aggvet:noalloc
func getStage(n int) *stage {
	if s, ok := stagePools[bits.TrailingZeros(uint(n))].Get().(*stage); ok {
		return s
	}
	//aggvet:allow noalloc -- a fresh stage, made only while the pool has none of this size, as getSlab makes a fresh slab: absent from the steady state the alloc pins measure
	return &stage{buf: make([]tuple.Tuple, n)}
}

// NewMerge returns an empty Merge.
func NewMerge() *Merge { return &Merge{table: aggtable.New(0)} }

// Raw folds raw tuples, or stages them.
//
//aggvet:noalloc
func (m *Merge) Raw(ts []tuple.Tuple) {
	if !m.staging {
		m.table.UpdateRows(ts, nil)
		return
	}
	if m.stage == nil {
		m.take()
	}
	// A home slot's region is its top regionBits bits. A fold that grows
	// the table past its reservation leaves the rest of the batch in
	// regions of the old size: folded all the same, less locally.
	st, w := m.stage, m.stage.window()
	shift := uint(bits.TrailingZeros(uint(m.table.Slots()))) - regionBits
	for _, tp := range ts {
		r := m.table.Home(tp.Key.Hash()) >> shift & (regions - 1)
		i := st.ends[r]
		st.buf[i] = tp
		st.ends[r] = i + 1
		if (i+1)&(w-1) == 0 {
			m.fold(int(r))
		}
	}
	m.staged += len(ts)
}

// take gives m a stage of one tuple per slot, split into the regions'
// partitions.
//
//aggvet:noalloc
func (m *Merge) take() {
	m.stage = getStage(m.table.Slots())
	w := m.stage.window()
	for r := range m.stage.ends {
		m.stage.ends[r] = r * w
	}
}

// fold folds partition r into the table and empties it.
//
//aggvet:noalloc
func (m *Merge) fold(r int) {
	st := m.stage
	lo := r * st.window()
	if st.ends[r] == lo {
		return
	}
	m.table.UpdateRows(st.buf[lo:st.ends[r]], nil)
	st.ends[r] = lo
	m.folds++
}

// unstage folds every partition and gives the stage back to the pool; a
// later Raw takes one again.
func (m *Merge) unstage() {
	if m.stage == nil {
		return
	}
	for r := range regions {
		m.fold(r)
	}
	m.drop()
}

// drop gives the stage back without folding it.
func (m *Merge) drop() {
	if s := m.stage; s != nil {
		m.stage = nil
		stagePools[bits.TrailingZeros(uint(len(s.buf)))].Put(s)
	}
}

// Partials folds partials. They fold on arrival even while raw tuples
// stage: a partial stands for a group a scan already folded, so an owner
// gets one per group and scan, and most of its fold is the raw tuples.
//
//aggvet:noalloc
func (m *Merge) Partials(ps []tuple.Partial) {
	for _, p := range ps {
		m.table.MergePartial(p)
	}
}

// Reserve makes room for groups groups in all. The largest target wins,
// not the sum, as one owner's flushes mostly carry the same groups; the
// table grows to it in one rehash and never shrinks. A target that grows
// the slot array past stageSlots turns staging on; what was staged folds
// first, as the regions move with the slot count.
func (m *Merge) Reserve(groups int) {
	if groups <= m.reserved {
		return
	}
	m.unstage()
	m.reserved = groups
	m.table.Reserve(m.reserved - m.table.Len())
	m.staging = m.table.Slots() > stageSlots
}

// Pour folds into dst the groups whose range (Key.Dest over len(keep))
// keep marks, and releases m. dst reserves m's length first: a slot-order
// walk into an array that doubles under it is quadratic (DESIGN.md §10).
func (m *Merge) Pour(dst *Merge, keep []bool) {
	m.unstage()
	dst.Reserve(m.table.Len())
	m.table.Each(func(k tuple.Key, s tuple.AggState) {
		if keep[k.Dest(len(keep))] {
			dst.table.MergePartial(tuple.Partial{Key: k, State: s})
		}
	})
	m.Release()
}

// Release returns the table's memory, and the stage's, to their pools;
// what was staged is dropped.
func (m *Merge) Release() {
	m.drop()
	m.table.Release()
	m.table = nil
}

// Table is the folded groups, the staged ones included; nil once released.
func (m *Merge) Table() *aggtable.Table {
	m.unstage()
	return m.table
}

// Reserved is the largest reservation target m was given.
func (m *Merge) Reserved() int { return m.reserved }

// Staged is how many raw tuples m staged and how many partition folds
// took them into the table.
func (m *Merge) Staged() (tuples, folds int) { return m.staged, m.folds }

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
