package aggtable

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"parallelagg/internal/tuple"
)

// drainSlabPools empties every slab pool, so the next table or growth
// allocates fresh, zeroed arrays.
func drainSlabPools() {
	for i := range slabPools {
		for slabPools[i].Get() != nil {
		}
	}
}

// garbageSlabs makes one slab of every size from minSlots to maxSlots,
// each holding what a previous table could have left there: control bytes
// live and empty at random, every key of keys at its home slot (where a
// probe for it starts) with its real h2, the rest of the keys drawn from
// keys too, and random states.
func garbageSlabs(rng *rand.Rand, keys []tuple.Key, maxSlots int) []*slab {
	var out []*slab
	for slots := minSlots; slots <= maxSlots; slots <<= 1 {
		s := &slab{ctrl: make([]uint8, slots), keys: make([]tuple.Key, slots), states: make([]tuple.AggState, slots)}
		for i := range s.ctrl {
			s.ctrl[i] = uint8(rng.Intn(256))
			s.keys[i] = keys[rng.Intn(len(keys))]
			s.states[i] = tuple.AggState{Count: rng.Int63(), Sum: rng.Int63(), Min: -rng.Int63(), Max: rng.Int63()}
		}
		for _, k := range keys {
			h := k.Hash()
			i := h & uint64(slots-1)
			s.ctrl[i], s.keys[i] = uint8(h>>57), k
		}
		out = append(out, s)
	}
	return out
}

// seedSlabs puts a copy of every garbage slab into its pool.
func seedSlabs(garbage []*slab) {
	for _, g := range garbage {
		putSlab(&slab{ctrl: slices.Clone(g.ctrl), keys: slices.Clone(g.keys), states: slices.Clone(g.states)})
	}
}

// slotWalk is the table's Each sequence, slot order kept.
func slotWalk(tab *Table) []tuple.Partial {
	var out []tuple.Partial
	tab.Each(func(k tuple.Key, s tuple.AggState) { out = append(out, tuple.Partial{Key: k, State: s}) })
	return out
}

// TestRecycledSlabsFoldLikeFresh holds a table whose every slab comes out
// of a pool seeded with garbage — keys it is about to insert among them —
// to a twin whose every slab is freshly allocated. Both take the same
// randomized sequence of folds, merges, reservations, growth, resets and
// drains; after every step they must agree on each result, their length,
// their slot count and their slot walk, order included (the determinism
// contract: slot order is a function of the operations and the slot
// count, not of what the memory held before).
func TestRecycledSlabsFoldLikeFresh(t *testing.T) {
	defer drainSlabPools()
	const maxSlots = 8192
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]tuple.Key, 64+rng.Intn(1500))
		for i := range keys {
			keys[i] = tuple.Key(rng.Uint64() >> uint(rng.Intn(60)))
		}
		garbage := garbageSlabs(rng, keys, maxSlots)
		bound := []int{0, 0, 50, 700}[seed%4]
		hint := rng.Intn(600)
		randTuples := func(n int) []tuple.Tuple {
			ts := make([]tuple.Tuple, n)
			for i := range ts {
				ts[i] = tuple.Tuple{Key: keys[rng.Intn(len(keys))], Val: rng.Int63n(2001) - 1000}
			}
			return ts
		}

		// Each step runs on the recycled table right after the pools are
		// seeded, and on the fresh one right after they are drained.
		seedSlabs(garbage)
		recycled := NewSized(bound, hint)
		drainSlabPools()
		fresh := NewSized(bound, hint)
		step := func(op func(tab *Table) any) (any, any) {
			seedSlabs(garbage)
			a := op(recycled)
			drainSlabPools()
			return a, op(fresh)
		}

		for i := 0; i < 200; i++ {
			var name string
			var a, b any
			switch r := rng.Intn(20); {
			case r < 8:
				ts := randTuples(1 + rng.Intn(200))
				name = "UpdateRows"
				a, b = step(func(tab *Table) any { return tab.UpdateRows(ts, nil) })
			case r < 11:
				ts := randTuples(1 + rng.Intn(200))
				bt := tuple.NewBatch(len(ts))
				bt.AppendRows(ts)
				name = "UpdateBatch"
				a, b = step(func(tab *Table) any { return tab.UpdateBatch(bt, nil) })
			case r < 13:
				pb := tuple.NewPartialBatch(64)
				for _, tp := range randTuples(1 + rng.Intn(64)) {
					pb.Append(tuple.Partial{Key: tp.Key, State: tuple.NewState(tp.Val)})
				}
				name = "MergeBatch"
				a, b = step(func(tab *Table) any { return tab.MergeBatch(pb, nil) })
			case r < 15:
				tp := randTuples(1)[0]
				p := tuple.Partial{Key: tp.Key, State: tuple.AggState{Count: 3, Sum: tp.Val, Min: tp.Val - 1, Max: tp.Val + 1}}
				name = "MergePartial"
				a, b = step(func(tab *Table) any { return tab.MergePartial(p) })
			case r < 16:
				n := rng.Intn(2000)
				name = "Reserve"
				a, b = step(func(tab *Table) any { tab.Reserve(n); return nil })
			case r < 17:
				name = "Reset"
				a, b = step(func(tab *Table) any { tab.Reset(); return nil })
			case r < 18:
				name = "Drain"
				a, b = step(func(tab *Table) any { return tab.Drain() })
			default:
				k := keys[rng.Intn(len(keys))]
				name = "Get"
				a, b = step(func(tab *Table) any {
					s, ok := tab.Get(k)
					return fmt.Sprint(s, ok)
				})
			}
			ctx := fmt.Sprintf("seed %d step %d (%s)", seed, i, name)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: recycled returned %v, fresh %v", ctx, a, b)
			}
			if recycled.Len() != fresh.Len() || recycled.Slots() != fresh.Slots() {
				t.Fatalf("%s: recycled Len/Slots %d/%d, fresh %d/%d", ctx, recycled.Len(), recycled.Slots(), fresh.Len(), fresh.Slots())
			}
			if wa, wb := slotWalk(recycled), slotWalk(fresh); !reflect.DeepEqual(wa, wb) {
				t.Fatalf("%s: slot walks differ:\nrecycled %v\nfresh    %v", ctx, wa, wb)
			}
		}
		recycled.Release()
		fresh.Release()
	}
}

// TestReleasedTablePanics: a released table's slab may already be another
// table's, so every exported method must fail loudly rather than read it —
// Len and Each in particular must not pass for an empty table.
func TestReleasedTablePanics(t *testing.T) {
	calls := map[string]func(tab *Table){
		"Cap":               func(tab *Table) { tab.Cap() },
		"Drain":             func(tab *Table) { tab.Drain() },
		"Each":              func(tab *Table) { tab.Each(func(tuple.Key, tuple.AggState) {}) },
		"FoldPartial":       func(tab *Table) { tab.FoldPartial(tuple.Partial{Key: 1, State: tuple.NewState(1)}) },
		"FoldRows":          func(tab *Table) { tab.FoldRows(nil) },
		"Get":               func(tab *Table) { tab.Get(1) },
		"Len":               func(tab *Table) { tab.Len() },
		"MergeBatch":        func(tab *Table) { tab.MergeBatch(tuple.NewPartialBatch(1), nil) },
		"MergePartial":      func(tab *Table) { tab.MergePartial(tuple.Partial{Key: 1, State: tuple.NewState(1)}) },
		"OccupancyPermille": func(tab *Table) { tab.OccupancyPermille() },
		"Partials":          func(tab *Table) { tab.Partials() },
		"Release":           func(tab *Table) { tab.Release() },
		"Reserve":           func(tab *Table) { tab.Reserve(0) },
		"Reset":             func(tab *Table) { tab.Reset() },
		"Slots":             func(tab *Table) { tab.Slots() },
		"UpdateBatch":       func(tab *Table) { tab.UpdateBatch(tuple.NewBatch(1), nil) },
		"UpdateRaw":         func(tab *Table) { tab.UpdateRaw(tuple.Tuple{Key: 1, Val: 1}) },
		"UpdateRows":        func(tab *Table) { tab.UpdateRows(nil, nil) },
	}
	typ := reflect.TypeOf(&Table{})
	for i := range typ.NumMethod() {
		if name := typ.Method(i).Name; calls[name] == nil {
			t.Errorf("exported method %s has no case here", name)
		}
	}
	for name, call := range calls {
		for _, bound := range []int{0, 8} {
			tab := NewSized(bound, 4)
			tab.UpdateRaw(tuple.Tuple{Key: 7, Val: 1})
			tab.Release()
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on a released table (bound %d) did not panic", name, bound)
					}
				}()
				call(tab)
			}()
		}
	}
}

// TestAllocsPinReleasedSlab: a table of the size just released allocates
// only its header, so a per-run table at the bound costs its slots once.
func TestAllocsPinReleasedSlab(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what it is given")
	}
	if allocs := testing.AllocsPerRun(20, func() { NewSized(16384, 16384).Release() }); allocs > 1 {
		t.Errorf("NewSized+Release at a released size allocates %.1f times, want at most 1 (the header)", allocs)
	}
}

// TestSlabPoolConcurrent: eight goroutines build, fill, check and release
// tables of overlapping sizes at once. Under -race a slab handed to two
// tables, or touched after its Release, shows as a race; without it, as a
// wrong count.
func TestSlabPoolConcurrent(t *testing.T) {
	const workers, rounds = 8, 150
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := range rounds {
				groups := 1 + rng.Intn(400)
				tab := NewSized([]int{0, groups}[r%2], rng.Intn(2*groups))
				for i := range 3 * groups {
					tab.UpdateRaw(tuple.Tuple{Key: tuple.Key(w<<20 | i%groups), Val: 1})
				}
				if tab.Len() != groups {
					errs <- fmt.Errorf("worker %d round %d: Len %d, want %d", w, r, tab.Len(), groups)
					return
				}
				bad := 0
				tab.Each(func(k tuple.Key, s tuple.AggState) {
					if int(k)>>20 != w || s.Count != 3 {
						bad++
					}
				})
				if bad > 0 {
					errs <- fmt.Errorf("worker %d round %d: %d entries not this table's", w, r, bad)
					return
				}
				if r%3 == 0 {
					tab.Drain()
				}
				tab.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
