// Package aggtable is the specialized aggregation hash table every
// algorithm in the paper bottoms out in: hash the GROUP BY key, insert a
// new entry for the first tuple of a group, update the running aggregate
// for every subsequent one. It replaces the builtin map[tuple.Key]
// tuple.AggState the repo started with by an open-addressing layout tuned
// for exactly that loop:
//
//   - SwissTable-flavored control bytes: one byte per slot holding either
//     "empty" or the top 7 bits of the key's hash, so a probe usually
//     rejects a slot with a single byte compare and never touches the
//     key/state arrays of non-matching groups.
//   - Linear probing over a power-of-two slot array. Keys are already
//     finalized through splitmix64 (tuple.Key.Hash), so clustering stays
//     near the theoretical optimum without double hashing.
//   - Inline update: one probe finds or creates the entry, and the caller
//     folds into the state in place — no read-modify-write of a map value,
//     no second lookup, no per-tuple allocation.
//   - Incremental growth: the slot array starts small (minSlots) and
//     doubles when occupancy crosses maxLoadNum/maxLoadDen, up to what the
//     logical capacity bound needs. A zero bound means unbounded (the live
//     engine's default); a positive bound gives the paper's hard memory
//     budget M: a new group past it is refused, an existing one still
//     updates, and the caller decides what a refusal means.
//
// Two fold kernels. The scan side (UpdateRaw, UpdateRows, UpdateBatch and
// the Merge* pair) folds into tables that are bounded or hot: a group gets
// hundreds or thousands of rows, so whether the next one is a new minimum
// or maximum is almost always "no", and AggState.Update's compare-and-jump
// predicts well. The owner side (FoldRows, FoldPartial: kernel.Merge, the
// merge phase of paper §3.2) folds into unbounded tables whose groups are
// cold: 2–8 rows each on the spine's owner-heavy workloads, where a new
// extreme is a coin flip and that jump mispredicts. So the owner kernel
// refuses nothing and folds min and max with the min/max builtins, which
// compile to conditional moves. At eight rows a group BenchmarkFold's
// owner kernel ran 27–36 ns/row against the scan kernel's 38–43, and at
// 1,024 the two were level (2-vCPU Xeon, Go 1.24); the same builtins on
// the scan side too cost live_few, shared_hot and sql_groupby CPU
// (EXPERIMENTS.md "Owner tables fold cold groups without mispredicts").
//
// Table memory is recycled. A table's slot arrays live in one slab (control
// bytes, keys, states), taken from a process-wide sync.Pool per power-of-two
// slot count and returned there by a rehash (the old slab), Drain (the
// emptied one) and Release (the current one), so an engine that builds a
// table of the same size every run pays for the memory once per process.
// A released table is not a table any more: every method panics on it,
// Len and Each included, so it cannot pass for an empty one.
//
// Stale-slot invariant: a recycled slab's control bytes are reset to empty
// when a table takes it, but its keys and states keep a previous table's
// data. Every read of a key or state is gated by a live control byte:
// findH compares a key only on an h2 match, and Each, Partials and rehash
// visit live slots only. A new group's slot is written (key and state)
// before anything reads it.
//
// Sizing. A bounded table is cheapest allocated at its bound (NewSized with
// the bound as the hint): the paper's local phase folds into at most M
// groups, and a table of slotsFor(M) slots keeps a few groups sparse, where
// the linear probe's first slot nearly always decides. A table that grows
// to just past its groups sits near half load instead, and on 1,024 groups
// the probe was most of the fold. Merge tables, which have no bound, still
// grow, or are Reserved to the projection the scans send: at 10^5 groups a
// fold runs at the same ns/row at 76 % and 38 % load, since fresh memory,
// not the probe, is what it waits on.
//
// Determinism contract: Partials and Drain return entries in
// ascending key order regardless of insertion order or probe history, so
// everything downstream of a drain (simulator events, results) is
// byte-identical across same-seed runs. Slot order is exposed only by Each.
// It is a function of the insertion sequence and the slot count, not of
// what a recycled slab held: two tables fed the same operations in the
// same order walk identically. So Each serves consumers
// that keep no order of their own, and wire frames filled by one goroutine
// in a deterministic order (dist's scan-side flushes), which stay
// byte-identical across same-seed runs without a sort.
package aggtable

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"parallelagg/internal/tuple"
)

const (
	// ctrlEmpty marks a free slot. Live slots hold the hash's top 7 bits
	// (h2), which always have the high bit clear, so the two can never
	// collide. There are no tombstones: entries leave only via Drain or
	// Reset, which rebuild or clear the whole slot array.
	ctrlEmpty = 0x80

	// minSlots is the initial slot-array size (power of two). Small enough
	// that a short-lived spill-pass table costs a few hundred bytes, large
	// enough that typical tables grow at most a handful of times.
	minSlots = 64

	// maxLoadNum/maxLoadDen is the occupancy ratio that triggers doubling:
	// 13/16 ≈ 81%, past which linear probe chains start to hurt.
	maxLoadNum = 13
	maxLoadDen = 16

	// wordEmpty is eight empty control bytes: the walks over the control
	// array (Each, rehash, clearCtrl) read it eight slots per load.
	// Live bytes have the high bit clear, so ^word & wordEmpty has bit 8j+7
	// set for every live slot j of the word. Slot arrays are at least
	// minSlots long, a multiple of eight.
	wordEmpty = 0x8080808080808080
)

// Table is a capacity-bounded open-addressing aggregation hash table. It
// is not safe for concurrent use; each table belongs to one worker or
// simulated node. The zero value is not usable; build tables with New.
type Table struct {
	slab   *slab // the pooled storage ctrl, keys and states live in; nil once released
	ctrl   []uint8
	keys   []tuple.Key
	states []tuple.AggState
	mask   uint64 // len(ctrl)-1; len(ctrl) is a power of two
	used   int    // live entries
	growAt int    // used threshold that triggers doubling
	bound  int    // logical capacity (0 = unbounded)
}

// New returns an empty table. A positive bound caps the number of group
// entries (the paper's memory budget M); bound <= 0 means unbounded.
func New(bound int) *Table {
	t := &Table{bound: bound}
	t.init(minSlots)
	return t
}

// NewSized is New with a hint of the expected number of groups, sizing the
// slot array upfront so the steady state is reached without rehashing.
func NewSized(bound, expected int) *Table {
	t := &Table{bound: bound}
	t.init(slotsFor(expected))
	return t
}

// slotsFor returns the power-of-two slot count that holds n entries below
// the load limit.
func slotsFor(n int) int {
	slots := minSlots
	for n > slots*maxLoadNum/maxLoadDen {
		slots <<= 1
	}
	return slots
}

// slab is one slot array's storage. A table keeps a *slab so returning it
// to its pool boxes nothing new.
type slab struct {
	ctrl   []uint8
	keys   []tuple.Key
	states []tuple.AggState
}

// slabPools holds free slabs, indexed by log2 of their slot count. A pool
// has no New: an empty one hands out nil, and getSlab makes the slab.
var slabPools [64]sync.Pool

// getSlab returns a slab of slots slots (a power of two) whose control
// bytes, keys and states may hold anything.
func getSlab(slots int) *slab {
	if s, ok := slabPools[bits.TrailingZeros(uint(slots))].Get().(*slab); ok {
		return s
	}
	//aggvet:allow noalloc -- a fresh slab, made only while the pool has none of this size: growth that recycling amortizes, absent from the steady-state fold the alloc pins measure
	return &slab{
		ctrl:   make([]uint8, slots),
		keys:   make([]tuple.Key, slots),
		states: make([]tuple.AggState, slots),
	}
}

// putSlab returns s (nil: nothing) to its pool. Its holder must not touch
// it again.
func putSlab(s *slab) {
	if s != nil {
		slabPools[bits.TrailingZeros(uint(len(s.ctrl)))].Put(s)
	}
}

// init points the table at an empty slab of slots slots and returns the
// slab it held (nil for a new table), which the caller puts back once done
// with it.
func (t *Table) init(slots int) (old *slab) {
	old, t.slab = t.slab, getSlab(slots)
	t.ctrl, t.keys, t.states = t.slab.ctrl, t.slab.keys, t.slab.states
	clearCtrl(t.ctrl)
	t.mask = uint64(slots - 1)
	t.used = 0
	t.growAt = slots * maxLoadNum / maxLoadDen
	return old
}

// liveBits marks the live slots of the eight at ctrl[base:]: bit 8j+7 is
// set iff slot base+j is live. base is a multiple of eight.
func liveBits(ctrl []uint8, base int) uint64 {
	return ^binary.LittleEndian.Uint64(ctrl[base:]) & wordEmpty
}

// clearCtrl marks every slot empty, writing only the words that hold a
// live slot.
func clearCtrl(ctrl []uint8) {
	for base := 0; base < len(ctrl); base += 8 {
		if liveBits(ctrl, base) != 0 {
			binary.LittleEndian.PutUint64(ctrl[base:], wordEmpty)
		}
	}
}

// alive panics on a released table, whose slab may be another table's by
// now.
func (t *Table) alive() {
	if t.slab == nil {
		panic("aggtable: use of a released Table")
	}
}

// releasedCtrl is a released table's control array: one word of live
// slots over no keys, so Each, which has no room for alive and still
// inline, panics on its first index instead of walking nothing.
var releasedCtrl [8]uint8

// Release returns the table's memory to the pool the next table of its
// size takes it from. The table is unusable afterwards: every method
// panics. Release only a table nothing else refers to.
func (t *Table) Release() {
	t.alive()
	putSlab(t.slab)
	*t = Table{ctrl: releasedCtrl[:]}
}

// Len returns the number of group entries.
//
//aggvet:noalloc
func (t *Table) Len() int {
	t.alive()
	return t.used
}

// Cap returns the logical capacity bound (0 = unbounded).
func (t *Table) Cap() int {
	t.alive()
	return t.bound
}

// Slots returns the current physical slot-array size.
//
//aggvet:noalloc
func (t *Table) Slots() int {
	t.alive()
	return len(t.ctrl)
}

// OccupancyPermille is the observability hook: the fill level of the
// logical budget in 1/1000ths (used/bound), or of the physical slot array
// when the table is unbounded. The obs layer publishes this as the
// hash-occupancy gauge.
func (t *Table) OccupancyPermille() int {
	t.alive()
	if t.bound > 0 {
		return 1000 * t.used / t.bound
	}
	return 1000 * t.used / len(t.ctrl)
}

// find probes for k. It returns the slot index and whether the slot holds
// k (true) or is the empty slot where k would be inserted (false).
func (t *Table) find(k tuple.Key) (int, bool) {
	return t.findH(k, k.Hash())
}

// findH is find with k's hash in hand, and the probe half of the fold kernel:
// it inlines, which find does not, so the fold entry points hash for it.
//
//aggvet:noalloc
func (t *Table) findH(k tuple.Key, h uint64) (int, bool) {
	h2 := uint8(h >> 57) // top 7 bits; high bit clear, so never ctrlEmpty
	i := t.home(h)
	for {
		c := t.ctrl[i]
		if c == h2 && t.keys[i] == k {
			return int(i), true
		}
		if c == ctrlEmpty {
			return int(i), false
		}
		i = (i + 1) & t.mask
	}
}

// home is the slot a key of hash h probes first, the rule findH probes
// from: its hash's low bits over the slot array.
//
//aggvet:noalloc
func (t *Table) home(h uint64) uint64 { return h & t.mask }

// claim is the insert half of the fold kernel: it takes the empty slot i
// findH stopped at for the new group k, or returns -1 at the table's bound.
//
//aggvet:noalloc
func (t *Table) claim(i int, k tuple.Key, h uint64) int {
	if t.bound > 0 && t.used >= t.bound {
		return -1
	}
	return t.insertAtH(i, k, h)
}

// insertAtH claims the empty slot i for k, whose hash is h, growing (and
// re-probing) first when the load limit is reached. It returns the slot
// holding k's state.
//
//aggvet:noalloc
func (t *Table) insertAtH(i int, k tuple.Key, h uint64) int {
	if t.used >= t.growAt {
		t.grow()
		i, _ = t.findH(k, h)
	}
	t.ctrl[i] = uint8(h >> 57)
	t.keys[i] = k
	t.used++
	return i
}

// grow doubles the slot array. Amortized over the inserts that filled the
// table this is O(1) per insert; tables built with NewSized on a good
// hint, or Reserved ahead of a bulk load, never grow at all. Not inlined,
// so insertAtH compiles to what it was when grow held the rehash loop.
//
//go:noinline
func (t *Table) grow() { t.rehash(len(t.ctrl) << 1) }

// rehash rebuilds the table over a slot array of the given size (a power
// of two that holds t.used entries below the load limit), reinserts every
// live entry, and returns the old slab to its pool.
func (t *Table) rehash(slots int) {
	old := t.init(slots)
	for base := 0; base < len(old.ctrl); base += 8 {
		for m := liveBits(old.ctrl, base); m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)>>3
			k := old.keys[i]
			j, _ := t.find(k)
			t.ctrl[j] = old.ctrl[i]
			t.keys[j] = k
			t.states[j] = old.states[i]
			t.used++
		}
	}
	putSlab(old)
}

// Reserve makes room for n more entries with at most one rehash, so the
// inserts that follow never grow the table. Call it before pouring
// another table's Each walk in: Each visits entries in slot order, which
// is hash order, so a destination that doubles as it fills takes them
// into the front of each too-small slot array as one long probe chain —
// quadratic until the last doubling (DESIGN.md §10 "Growth").
func (t *Table) Reserve(n int) {
	t.alive()
	if slots := slotsFor(t.used + n); slots > len(t.ctrl) {
		t.rehash(slots)
	}
}

// Get returns the state of group k.
func (t *Table) Get(k tuple.Key) (tuple.AggState, bool) {
	t.alive()
	i, ok := t.find(k)
	if !ok {
		return tuple.AggState{}, false
	}
	return t.states[i], true
}

// UpdateRaw folds one raw tuple into the table with a single probe. It
// returns false when the tuple's group is absent and the table is at its
// bound; the tuple is then NOT absorbed and the caller must handle it
// (spill, reroute, or switch strategy).
//
//aggvet:noalloc
func (t *Table) UpdateRaw(tp tuple.Tuple) bool {
	t.alive()
	h := tp.Key.Hash()
	i, ok := t.findH(tp.Key, h)
	if ok {
		t.states[i].Update(tp.Val)
		return true
	}
	if i = t.claim(i, tp.Key, h); i < 0 {
		return false
	}
	t.states[i] = tuple.NewState(tp.Val)
	return true
}

// MergePartial folds one partial-aggregate tuple into the table, with the
// same full-table contract as UpdateRaw.
//
//aggvet:noalloc
func (t *Table) MergePartial(p tuple.Partial) bool {
	t.alive()
	h := p.Key.Hash()
	i, ok := t.findH(p.Key, h)
	if ok {
		t.states[i].Merge(p.State)
		return true
	}
	if i = t.claim(i, p.Key, h); i < 0 {
		return false
	}
	t.states[i] = p.State
	return true
}

// Partials returns the table contents as partial tuples in ascending key
// order (deterministic), without modifying the table.
func (t *Table) Partials() []tuple.Partial {
	out := make([]tuple.Partial, 0, t.Len())
	t.Each(func(k tuple.Key, s tuple.AggState) { out = append(out, tuple.Partial{Key: k, State: s}) })
	sortPartials(out)
	return out
}

// sortPartials orders partials by ascending key, the deterministic output
// order every drain-like operation promises.
func sortPartials(ps []tuple.Partial) {
	slices.SortFunc(ps, func(a, b tuple.Partial) int { return cmp.Compare(a.Key, b.Key) })
}

// Each calls fn once for every group entry, in slot order — which
// depends on insertion and growth history, so it is for consumers that
// impose their own order or need none (both engines flush scan tables
// into their exchange with it, and live pours merge tables into a Go
// map). A wire frame may carry slot order only when one goroutine fills
// the table in a deterministic order; a simulator event or a printed
// result goes through Partials or Drain. fn must not modify the table.
// It skips eight empty slots per load, so a sparse table walks fast, and
// it inlines, so fn is called directly: a pour of a dense merge table into
// a map spends its time in the map. On a released table it panics indexing
// the table's keys (see Release).
func (t *Table) Each(fn func(tuple.Key, tuple.AggState)) {
	for base := 0; base < len(t.ctrl); base += 8 {
		for m := liveBits(t.ctrl, base); m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)>>3
			fn(t.keys[i], t.states[i])
		}
	}
}

// Drain returns the table contents like Partials and empties the table,
// shrinking the slot array back to its initial size so a drained table is
// as cheap to hold as a fresh one; the slab it held goes back to its pool.
func (t *Table) Drain() []tuple.Partial {
	out := t.Partials()
	putSlab(t.init(minSlots))
	return out
}

// Reset empties the table in place, keeping the current slot array so the
// next fill of similar size allocates nothing.
func (t *Table) Reset() {
	t.alive()
	clearCtrl(t.ctrl)
	t.used = 0
}
