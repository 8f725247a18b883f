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
// Determinism contract: Partials and Drain return entries in
// ascending key order regardless of insertion order or probe history, so
// everything downstream of a drain (simulator events, results) is
// byte-identical across same-seed runs. Slot order is exposed only by Each.
// It is a function of the insertion sequence: two tables fed the same
// operations in the same order walk identically. So Each serves consumers
// that keep no order of their own, and wire frames filled by one goroutine
// in a deterministic order (dist's scan-side flushes), which stay
// byte-identical across same-seed runs without a sort.
package aggtable

import (
	"cmp"
	"slices"

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
)

// Table is a capacity-bounded open-addressing aggregation hash table. It
// is not safe for concurrent use; each table belongs to one worker or
// simulated node. The zero value is not usable; build tables with New.
type Table struct {
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

func (t *Table) init(slots int) {
	t.ctrl = make([]uint8, slots) //aggvet:allow noalloc -- slot-array (re)construction; amortized growth, absent from the steady-state fold the alloc pins measure
	for i := range t.ctrl {
		t.ctrl[i] = ctrlEmpty
	}
	t.keys = make([]tuple.Key, slots)        //aggvet:allow noalloc -- slot-array (re)construction; amortized growth, absent from the steady-state fold the alloc pins measure
	t.states = make([]tuple.AggState, slots) //aggvet:allow noalloc -- slot-array (re)construction; amortized growth, absent from the steady-state fold the alloc pins measure
	t.mask = uint64(slots - 1)
	t.used = 0
	t.growAt = slots * maxLoadNum / maxLoadDen
}

// Len returns the number of group entries.
//
//aggvet:noalloc
func (t *Table) Len() int { return t.used }

// Cap returns the logical capacity bound (0 = unbounded).
func (t *Table) Cap() int { return t.bound }

// Slots returns the current physical slot-array size.
func (t *Table) Slots() int { return len(t.ctrl) }

// Full reports whether the table is at its capacity bound. An unbounded
// table is never full.
func (t *Table) Full() bool { return t.bound > 0 && t.used >= t.bound }

// OccupancyPermille is the observability hook: the fill level of the
// logical budget in 1/1000ths (used/bound), or of the physical slot array
// when the table is unbounded. The obs layer publishes this as the
// hash-occupancy gauge.
func (t *Table) OccupancyPermille() int {
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
	i := h & t.mask
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
// of two that holds t.used entries below the load limit) and reinserts
// every live entry.
func (t *Table) rehash(slots int) {
	oldCtrl, oldKeys, oldStates := t.ctrl, t.keys, t.states
	t.init(slots)
	for i, c := range oldCtrl {
		if c == ctrlEmpty {
			continue
		}
		k := oldKeys[i]
		j, _ := t.find(k)
		t.ctrl[j] = c
		t.keys[j] = k
		t.states[j] = oldStates[i]
		t.used++
	}
}

// Reserve makes room for n more entries with at most one rehash, so the
// inserts that follow never grow the table. Call it before pouring
// another table's Each walk in: Each visits entries in slot order, which
// is hash order, so a destination that doubles as it fills takes them
// into the front of each too-small slot array as one long probe chain —
// quadratic until the last doubling (DESIGN.md §10 "Growth").
func (t *Table) Reserve(n int) {
	if slots := slotsFor(t.used + n); slots > len(t.ctrl) {
		t.rehash(slots)
	}
}

// Contains reports whether a group entry exists for k.
func (t *Table) Contains(k tuple.Key) bool {
	_, ok := t.find(k)
	return ok
}

// Get returns the state of group k.
func (t *Table) Get(k tuple.Key) (tuple.AggState, bool) {
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
	out := make([]tuple.Partial, 0, t.used)
	for i, c := range t.ctrl {
		if c == ctrlEmpty {
			continue
		}
		out = append(out, tuple.Partial{Key: t.keys[i], State: t.states[i]})
	}
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
func (t *Table) Each(fn func(tuple.Key, tuple.AggState)) {
	for i, c := range t.ctrl {
		if c != ctrlEmpty {
			fn(t.keys[i], t.states[i])
		}
	}
}

// Drain returns the table contents like Partials and empties the table,
// shrinking the slot array back to its initial size so a drained table is
// as cheap to hold as a fresh one.
func (t *Table) Drain() []tuple.Partial {
	out := t.Partials()
	t.init(minSlots)
	return out
}

// Reset empties the table in place, keeping the current slot array so the
// next fill of similar size allocates nothing.
func (t *Table) Reset() {
	for i := range t.ctrl {
		t.ctrl[i] = ctrlEmpty
	}
	t.used = 0
}
