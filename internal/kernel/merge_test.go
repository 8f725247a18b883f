package kernel

import (
	"math/rand"
	"strings"
	"testing"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/tuple"
)

// A Merge keeps the largest target it is given: a later, smaller one
// shrinks nothing, and a table reserved for n groups folds n groups, raw
// or partial, in the slot array the reservation made.
func TestMergeReservePolicy(t *testing.T) {
	const n = 10_000
	m := NewMerge()
	m.Reserve(n)
	slots := m.Table().Slots()
	if want := aggtable.NewSized(0, n).Slots(); slots != want {
		t.Fatalf("reserved for %d groups: %d slots, want %d", n, slots, want)
	}
	m.Reserve(n / 4)
	if m.Reserved() != n || m.Table().Slots() != slots {
		t.Fatalf("a smaller target moved the reservation to %d (%d slots), want %d (%d)", m.Reserved(), m.Table().Slots(), n, slots)
	}
	for k := 0; k < n; k += 2 {
		m.Raw([]tuple.Tuple{{Key: tuple.Key(k), Val: 1}})
		m.Partials([]tuple.Partial{{Key: tuple.Key(k + 1), State: tuple.NewState(1)}})
	}
	if m.Table().Len() != n || m.Table().Slots() != slots {
		t.Fatalf("%d groups in %d slots, want %d in the %d reserved", m.Table().Len(), m.Table().Slots(), n, slots)
	}
	m.Reserve(n / 2) // below what the table holds: nothing to do
	if m.Table().Slots() != slots {
		t.Fatalf("a target below Len grew the table to %d slots", m.Table().Slots())
	}
}

// Whatever the interleaving of raw batches, partial batches and
// reservations, a Merge ends with the sequential fold of its input.
func TestMergeInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		groups := 1 + rng.Intn(3_000)
		want := map[tuple.Key]tuple.AggState{}
		fold := func(k tuple.Key, s tuple.AggState) {
			if have, ok := want[k]; ok {
				s.Merge(have)
			}
			want[k] = s
		}
		m := NewMerge()
		for op := 0; op < 200; op++ {
			size := rng.Intn(64)
			switch rng.Intn(3) {
			case 0:
				b := make([]tuple.Tuple, size)
				for i := range b {
					b[i] = tuple.Tuple{Key: tuple.Key(rng.Intn(groups)), Val: rng.Int63n(1000) - 500}
					fold(b[i].Key, tuple.NewState(b[i].Val))
				}
				m.Raw(b)
			case 1:
				b := make([]tuple.Partial, size)
				for i := range b {
					s := tuple.NewState(rng.Int63n(1000) - 500)
					s.Update(rng.Int63n(1000))
					b[i] = tuple.Partial{Key: tuple.Key(rng.Intn(groups)), State: s}
					fold(b[i].Key, s)
				}
				m.Partials(b)
			default:
				m.Reserve(rng.Intn(2 * groups))
			}
		}
		if got := m.Table().Len(); got != len(want) {
			t.Fatalf("seed %d: %d groups, want %d", seed, got, len(want))
		}
		m.Table().Each(func(k tuple.Key, s tuple.AggState) {
			if want[k] != s {
				t.Fatalf("seed %d: group %d = %v, want %v", seed, k, s, want[k])
			}
		})
	}
}

// Pour folds exactly the ranges its mask marks into a destination that
// already holds some of them, and releases the source.
func TestMergePour(t *testing.T) {
	const ranges = 4
	keep := []bool{true, false, true, false}
	src, dst := NewMerge(), NewMerge()
	want := map[tuple.Key]tuple.AggState{}
	for k := tuple.Key(0); k < 2_000; k++ {
		src.Raw([]tuple.Tuple{{Key: k, Val: int64(k)}})
		s := tuple.NewState(int64(k))
		if k%3 == 0 {
			dst.Raw([]tuple.Tuple{{Key: k, Val: 1}})
			if keep[k.Dest(ranges)] {
				s.Update(1)
				want[k] = s
			} else {
				want[k] = tuple.NewState(1)
			}
		} else if keep[k.Dest(ranges)] {
			want[k] = s
		}
	}
	src.Pour(dst, keep)
	if src.Table() != nil {
		t.Errorf("the source table was not released")
	}
	if got := dst.Table().Len(); got != len(want) {
		t.Fatalf("destination holds %d groups, want %d", got, len(want))
	}
	dst.Table().Each(func(k tuple.Key, s tuple.AggState) {
		if want[k] != s {
			t.Fatalf("group %d (range %d) = %v, want %v", k, k.Dest(ranges), s, want[k])
		}
	})
}

// Assemble trusts Key.Dest to make the owner tables disjoint and checks it
// by count. Two tables sharing a key must fail, and the error must name
// the smallest shared key and the second table to produce it, whichever
// duplicate the walk meets first: here table b's 60, ahead of table c's 42.
// Either way Assemble releases the tables it was given.
func TestAssembleNamesDuplicateProducer(t *testing.T) {
	build := func() (a, b, c *aggtable.Table) {
		a, b, c = aggtable.New(0), aggtable.New(0), aggtable.New(0)
		for k := 0; k < 100; k++ {
			a.UpdateRaw(tuple.Tuple{Key: tuple.Key(k), Val: 1})
			b.UpdateRaw(tuple.Tuple{Key: tuple.Key(100 + k), Val: 2})
		}
		c.UpdateRaw(tuple.Tuple{Key: 1000, Val: 3})
		return a, b, c
	}
	a, b, c := build()
	got, err := Assemble([]*aggtable.Table{a, nil, b, c}, 0)
	if err != nil {
		t.Fatalf("disjoint tables: %v", err)
	}
	if len(got) != 201 || got[7] != tuple.NewState(1) || got[107] != tuple.NewState(2) || got[1000] != tuple.NewState(3) {
		t.Fatalf("disjoint tables assembled to %d groups (7: %+v)", len(got), got[7])
	}
	for _, tab := range []*aggtable.Table{a, b, c} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a poured table is still usable")
				}
			}()
			tab.Len()
		}()
	}

	a, b, c = build()
	b.UpdateRaw(tuple.Tuple{Key: 60, Val: 2}) // owned by a already
	c.UpdateRaw(tuple.Tuple{Key: 42, Val: 3}) // and so is this one
	got, err = Assemble([]*aggtable.Table{a, nil, b, c}, 0)
	if err == nil {
		t.Fatalf("duplicate producer accepted, %d groups", len(got))
	}
	if got != nil {
		t.Errorf("error returned with a non-nil result map")
	}
	for _, want := range []string{"group 42 ", "second: 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// TestMergeAllocsPin pins the owner side's steady state: a reserved Merge
// folds raw and partial batches without allocating, below 2^16 slots and
// past them.
func TestMergeAllocsPin(t *testing.T) {
	const batch = 256
	for _, groups := range []int{4096, 1 << 16} {
		m := NewMerge()
		m.Reserve(groups)
		raw, part := make([]tuple.Tuple, batch), make([]tuple.Partial, batch)
		next := 0
		allocs := testing.AllocsPerRun(1_000, func() {
			for i := range raw {
				raw[i] = tuple.Tuple{Key: tuple.Key(next % groups), Val: 1}
				part[i] = tuple.Partial{Key: tuple.Key((next + 1) % groups), State: tuple.NewState(2)}
				next += 7
			}
			m.Raw(raw)
			m.Partials(part)
		})
		if allocs != 0 {
			t.Errorf("a Merge reserved for %d groups allocates %.1f per batch pair, want 0", groups, allocs)
		}
		if n := m.Table().Len(); n != groups {
			t.Fatalf("%d groups, want %d", n, groups)
		}
		m.Release()
	}
}

// A Merge folds to the map fold of its input whatever the interleaving of
// raw batches, partial batches, reservations (below, at and past what the
// table holds), pours and releases. Over the seeds it must see a
// reservation that grows the table between folds, a Pour whose keep mask
// drops some ranges, and a Release followed by a fresh Merge that may take
// the released slab; each is checked against the map.
func TestMergeMatchesMapFold(t *testing.T) {
	var grew, poured, released int
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		groups := 1 + rng.Intn([]int{8, 3_000, 100_000}[seed%3])
		want := map[tuple.Key]tuple.AggState{}
		fold := func(k tuple.Key, s tuple.AggState) {
			if have, ok := want[k]; ok {
				s.Merge(have)
			}
			want[k] = s
		}
		check := func(m *Merge, what string) {
			t.Helper()
			tab := m.Table()
			if got := tab.Len(); got != len(want) {
				t.Fatalf("seed %d, %s: %d groups, want %d", seed, what, got, len(want))
			}
			tab.Each(func(k tuple.Key, s tuple.AggState) {
				if want[k] != s {
					t.Fatalf("seed %d, %s: group %d = %v, want %v", seed, what, k, s, want[k])
				}
			})
		}
		m := NewMerge()
		for op := 0; op < 120; op++ {
			switch rng.Intn(6) {
			case 0, 1, 2:
				b := make([]tuple.Tuple, rng.Intn(2048))
				for i := range b {
					b[i] = tuple.Tuple{Key: tuple.Key(rng.Intn(groups)), Val: rng.Int63n(1000) - 500}
					fold(b[i].Key, tuple.NewState(b[i].Val))
				}
				m.Raw(b)
			case 3:
				b := make([]tuple.Partial, rng.Intn(64))
				for i := range b {
					s := tuple.NewState(rng.Int63n(1000) - 500)
					s.Update(rng.Int63n(1000))
					b[i] = tuple.Partial{Key: tuple.Key(rng.Intn(groups)), State: s}
					fold(b[i].Key, s)
				}
				m.Partials(b)
			case 4:
				slots := m.Table().Slots()
				m.Reserve(rng.Intn(2 * groups))
				if m.Table().Slots() > slots && m.Table().Len() > 0 {
					grew++
				}
			default:
				if rng.Intn(4) != 0 {
					break
				}
				// A mask over three ranges keeps one to three of them.
				keep := []bool{true, rng.Intn(2) == 0, rng.Intn(2) == 0}
				dst := NewMerge()
				dst.Reserve(rng.Intn(2 * groups))
				m.Pour(dst, keep)
				if m.Table() != nil {
					t.Fatalf("seed %d: a poured Merge keeps its table", seed)
				}
				for k := range want {
					if !keep[k.Dest(len(keep))] {
						delete(want, k)
					}
				}
				check(dst, "pour")
				m = dst
				poured++
			}
		}
		if rng.Intn(4) == 0 {
			m.Release()
			if m.Table() != nil {
				t.Fatalf("seed %d: a released Merge keeps its table", seed)
			}
			released++
			clear(want)
			m = NewMerge()
			m.Reserve(rng.Intn(2 * groups))
			for k := 0; k < 5_000; k++ {
				tp := tuple.Tuple{Key: tuple.Key(rng.Intn(groups)), Val: int64(k)}
				m.Raw([]tuple.Tuple{tp})
				fold(tp.Key, tuple.NewState(tp.Val))
			}
		}
		check(m, "end")
		m.Release()
	}
	t.Logf("reservations growing a filled table %d, pours %d, releases %d", grew, poured, released)
	if grew == 0 || poured == 0 || released == 0 {
		t.Errorf("a case was never reached: grew %d, poured %d, released %d", grew, poured, released)
	}
}
