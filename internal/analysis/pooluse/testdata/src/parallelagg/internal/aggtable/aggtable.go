package aggtable

import "sync"

// The slab pool's shape: a table holds a *slab and gives it back to the
// pool of its size when it rehashes, drains or is released.
type slab struct {
	ctrl []uint8
	keys []uint64
}

type table struct {
	slab *slab
	ctrl []uint8
}

var slabPools [64]sync.Pool

func putSlab(s *slab) { slabPools[len(s.ctrl)&63].Put(s) }

// The sanctioned order: reinsert from the old slab, then put it back.
func (t *table) rehash(fresh *slab) {
	old := t.slab
	t.slab, t.ctrl = fresh, fresh.ctrl
	for i, c := range old.ctrl {
		t.ctrl[i] = c
	}
	putSlab(old)
}

// Putting the old slab back before walking it hands the walk's memory to
// whichever table takes it next.
func (t *table) rehashLate(fresh *slab) {
	old := t.slab
	putSlab(old)
	t.slab, t.ctrl = fresh, fresh.ctrl
	for i, c := range old.ctrl { // want `old.ctrl is used after being returned to its sync.Pool`
		t.ctrl[i] = c
	}
}

// A release that keeps reading the table's slab through its own field.
func (t *table) releaseThenLen() int {
	putSlab(t.slab)
	return len(t.slab.keys) // want `t.slab.keys is used after being returned to its sync.Pool`
}

// Release proper: the field is overwritten after the Put.
func (t *table) release() {
	putSlab(t.slab)
	t.slab, t.ctrl = nil, nil
}
