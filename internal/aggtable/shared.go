// Shared is the concurrent variant of the aggregation table: the same
// SwissTable-style open-addressing layout, made safe for many writers by
// striping it across independently locked sub-tables. It exists to test
// the 2025 counterpoint to the source paper ("Global Hash Tables Strike
// Back!"): instead of giving every worker a private table and merging
// partials in a second phase, all workers fold into one shared structure
// and the merge phase collapses to a single drain.
//
// Layout and concurrency:
//
//   - The key space is split across a power-of-two number of stripes by
//     hash bits 32.. (disjoint from the low bits that pick the slot inside
//     a stripe and from the top 7 bits that form the control byte), so a
//     stripe's sub-table stays as well mixed as a private Table.
//   - Each stripe is a plain *Table guarded by its own sync.Mutex; every
//     access to a stripe's sub-table happens with that stripe's lock held
//     (machine-checked: the sub-table field carries //aggvet:guard mu).
//     With stripes ≫ writers, two writers collide only when their keys
//     share a stripe, and the hot path is one uncontended lock + one probe.
//   - The capacity bound is global, not per-stripe: a single atomic
//     reservation counter enforces the exact refusal contract of the
//     sequential Table (a new group is refused iff the table already
//     holds `bound` groups), regardless of how keys spread over stripes.
//
// Memory-ordering argument: all sub-table state is read and written only
// under the owning stripe's mutex, so every fold into a stripe
// happens-before any later fold or drain of that stripe. The only shared
// word outside the locks is the reservation counter, which is a
// sync/atomic counter: a successful CompareAndSwap publishes the slot
// claim before the insert completes under the lock, so the table can
// never hold more than `bound` groups in any interleaving. Drain locks
// stripes one at a time, which is exactly as strong as the contract
// needs: every concurrent update lands in exactly one drain snapshot
// (never zero, never two), and a drain issued after writers quiesce — the
// only time the live engine drains — observes everything and is
// byte-identical to a sequential Table fed the same multiset of
// operations.
//
// Determinism contract for the concurrent drain: Drain and Partials
// return entries in strictly ascending key order, like the sequential
// Table. Under quiescence the result is a pure function of the folded
// multiset (fold order never matters because AggState.Update/Merge are
// commutative and associative); while writers are active the snapshot
// boundary is per-stripe, and the union of all drain outputs still
// aggregates to exactly the folded multiset — the invariant the torture
// harness checks.
package aggtable

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"parallelagg/internal/tuple"
)

const (
	// defaultStripes is the stripe count when the caller does not choose
	// one: enough that a machine-sized worker pool rarely collides, small
	// enough that a drained Shared table costs a few KiB.
	defaultStripes = 64

	// maxStripes caps explicit requests; past this the per-stripe tables
	// are too small to amortize their headers.
	maxStripes = 4096
)

// stripe is one lock-guarded sub-table.
type stripe struct {
	mu sync.Mutex
	//aggvet:guard mu
	t Table
}

// paddedStripe rounds a stripe up to a cache-line multiple so adjacent
// stripes' locks never false-share.
type paddedStripe struct {
	stripe
	_ [(64 - unsafe.Sizeof(stripe{})%64) % 64]byte
}

// Shared is a capacity-bounded concurrent aggregation table. Build it
// with NewShared; the zero value is not usable. All methods are safe for
// concurrent use by any number of goroutines.
type Shared struct {
	stripes []paddedStripe
	mask    uint64 // len(stripes)-1; power of two
	bound   int    // global logical capacity (0 = unbounded)
	used    atomic.Int64
}

// NewShared returns an empty concurrent table. A positive bound caps the
// total number of group entries across all stripes with the exact refusal
// contract of New; bound <= 0 means unbounded. stripes is rounded up to a
// power of two; stripes <= 0 picks the default.
func NewShared(bound, stripes int) *Shared {
	n := defaultStripes
	if stripes > 0 {
		n = 1
		for n < stripes && n < maxStripes {
			n <<= 1
		}
	}
	s := &Shared{stripes: make([]paddedStripe, n), mask: uint64(n - 1), bound: bound}
	for i := range s.stripes {
		s.stripes[i].t.init(minSlots)
	}
	return s
}

// Stripes returns the stripe count.
func (s *Shared) Stripes() int { return len(s.stripes) }

// stripeFor picks the stripe owning k. Bits 32.. of the hash: disjoint
// from the in-stripe slot index (low bits) and the control byte (top 7).
//
//aggvet:noalloc
func (s *Shared) stripeFor(k tuple.Key) *stripe {
	return &s.stripes[(k.Hash()>>32)&s.mask].stripe
}

// Len returns the number of group entries. It is exact whenever no
// insert is concurrently in flight.
func (s *Shared) Len() int { return int(s.used.Load()) }

// Cap returns the logical capacity bound (0 = unbounded).
func (s *Shared) Cap() int { return s.bound }

// OccupancyPermille mirrors Table's obs hook: fill level of the logical
// budget when bounded, of the physical slot arrays when unbounded.
func (s *Shared) OccupancyPermille() int {
	used := int(s.used.Load())
	if s.bound > 0 {
		return 1000 * used / s.bound
	}
	slots := 0
	for i := range s.stripes {
		st := &s.stripes[i].stripe
		st.mu.Lock()
		slots += len(st.t.ctrl)
		st.mu.Unlock()
	}
	return 1000 * used / slots
}

// reserve claims one of the bounded table's group slots. The CAS loop is
// the only cross-stripe synchronization on the insert path: once used
// reaches the bound every further reservation fails, so the global
// refusal contract holds under any interleaving.
//
//aggvet:noalloc
func (s *Shared) reserve() bool {
	for {
		cur := s.used.Load()
		if int(cur) >= s.bound {
			return false
		}
		if s.used.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// updateLocked folds one raw tuple into st's sub-table. The insert path
// reserves a global slot before touching the stripe's arrays.
//
//aggvet:holds st.mu
//aggvet:noalloc
func (s *Shared) updateLocked(st *stripe, tp tuple.Tuple) bool {
	i, ok := st.t.find(tp.Key)
	if ok {
		st.t.states[i].Update(tp.Val)
		return true
	}
	if s.bound > 0 {
		if !s.reserve() {
			return false
		}
	} else {
		s.used.Add(1)
	}
	i = st.t.insertAtH(i, tp.Key, tp.Key.Hash())
	st.t.states[i] = tuple.NewState(tp.Val)
	return true
}

// mergeLocked is updateLocked for a partial-aggregate tuple.
//
//aggvet:holds st.mu
//aggvet:noalloc
func (s *Shared) mergeLocked(st *stripe, p tuple.Partial) bool {
	i, ok := st.t.find(p.Key)
	if ok {
		st.t.states[i].Merge(p.State)
		return true
	}
	if s.bound > 0 {
		if !s.reserve() {
			return false
		}
	} else {
		s.used.Add(1)
	}
	i = st.t.insertAtH(i, p.Key, p.Key.Hash())
	st.t.states[i] = p.State
	return true
}

// UpdateRaw folds one raw tuple into the table with a single probe under
// the owning stripe's lock. It returns false when the tuple's group is
// absent and the table holds bound groups; the tuple is then NOT absorbed
// and the caller must handle it.
//
//aggvet:noalloc
func (s *Shared) UpdateRaw(tp tuple.Tuple) bool {
	st := s.stripeFor(tp.Key)
	st.mu.Lock()
	ok := s.updateLocked(st, tp)
	st.mu.Unlock()
	return ok
}

// MergePartial folds one partial-aggregate tuple into the table, with the
// same full-table contract as UpdateRaw.
//
//aggvet:noalloc
func (s *Shared) MergePartial(p tuple.Partial) bool {
	st := s.stripeFor(p.Key)
	st.mu.Lock()
	ok := s.mergeLocked(st, p)
	st.mu.Unlock()
	return ok
}

// Get returns the state of group k.
func (s *Shared) Get(k tuple.Key) (tuple.AggState, bool) {
	st := s.stripeFor(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	i, ok := st.t.find(k)
	if !ok {
		return tuple.AggState{}, false
	}
	return st.t.states[i], true
}

// Each calls fn once for every group entry, one stripe at a time under
// that stripe's lock and in slot order within it — like Table.Each, for
// consumers that keep no order (the live engine pours the table into a Go
// map); Partials and Drain keep the sorted contract for everyone else.
// fn must not call back into the table.
func (s *Shared) Each(fn func(tuple.Key, tuple.AggState)) {
	for i := range s.stripes {
		st := &s.stripes[i].stripe
		st.mu.Lock()
		st.t.Each(fn)
		st.mu.Unlock()
	}
}

// Partials returns a snapshot of the table contents in ascending key
// order without modifying the table. The snapshot boundary is
// per-stripe: each stripe's contribution is atomic, and a quiescent
// snapshot equals the sequential Table's Partials byte for byte.
func (s *Shared) Partials() []tuple.Partial {
	return s.collect(false)
}

// Drain returns the table contents like Partials and empties the table,
// shrinking every stripe back to its initial size. Concurrent updates
// land either in the returned snapshot or in the emptied table, never in
// both and never in neither.
func (s *Shared) Drain() []tuple.Partial {
	return s.collect(true)
}

// collect gathers every stripe's entries, optionally draining them, and
// sorts the union into the deterministic ascending-key order. Stripes
// are locked one at a time — a global lock sweep would serialize writers
// for the whole walk and buys nothing: per-key atomicity already follows
// from the per-stripe lock.
func (s *Shared) collect(drain bool) []tuple.Partial {
	out := make([]tuple.Partial, 0, s.used.Load())
	for i := range s.stripes {
		st := &s.stripes[i].stripe
		st.mu.Lock()
		n := st.t.used
		st.t.Each(func(k tuple.Key, v tuple.AggState) { out = append(out, tuple.Partial{Key: k, State: v}) })
		if drain {
			putSlab(st.t.init(minSlots))
			s.used.Add(int64(-n))
		}
		st.mu.Unlock()
	}
	sortPartials(out)
	return out
}

// Reset empties the table in place, keeping each stripe's slot array so
// the next fill of similar size allocates nothing.
func (s *Shared) Reset() {
	for i := range s.stripes {
		st := &s.stripes[i].stripe
		st.mu.Lock()
		n := st.t.used
		st.t.Reset()
		s.used.Add(int64(-n))
		st.mu.Unlock()
	}
}
