package aggtable

import (
	"math/rand"
	"testing"

	"parallelagg/internal/tuple"
)

// TestSharedSequentialMatchesTable drives 50 seeded random single-threaded
// workloads through Shared and the sequential Table in lockstep. With one
// caller there is no interleaving freedom, so every observable — including
// the bounded refusal of each individual operation — must agree exactly.
func TestSharedSequentialMatchesTable(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bound := 0
		if seed%3 != 0 {
			bound = 1 + rng.Intn(200)
		}
		stripes := 1 << rng.Intn(7) // 1..64
		keySpace := int64(1) << uint(3+rng.Intn(12))
		ops := 1000 + rng.Intn(2000)

		sh := NewShared(bound, stripes)
		ref := New(bound)
		var sc BatchScratch
		for op := 0; op < ops; op++ {
			k := tuple.Key(rng.Int63n(keySpace))
			switch c := rng.Intn(100); {
			case c < 50:
				v := rng.Int63n(1000) - 500
				got := sh.UpdateRaw(tuple.Tuple{Key: k, Val: v})
				want := ref.UpdateRaw(tuple.Tuple{Key: k, Val: v})
				if got != want {
					t.Fatalf("seed %d op %d: UpdateRaw(%d) = %v, sequential table %v", seed, op, k, got, want)
				}
			case c < 65:
				p := tuple.Partial{Key: k, State: tuple.NewState(rng.Int63n(1000))}
				got := sh.MergePartial(p)
				want := ref.MergePartial(p)
				if got != want {
					t.Fatalf("seed %d op %d: MergePartial(%d) = %v, sequential table %v", seed, op, k, got, want)
				}
			case c < 70:
				b := tuple.Batch{Keys: []tuple.Key{k}, Vals: []int64{1}}
				refused, contended := sh.UpdateBatchContended(&sc, &b, nil)
				want := ref.UpdateRaw(tuple.Tuple{Key: k, Val: 1})
				if (len(refused) == 0) != want {
					t.Fatalf("seed %d op %d: UpdateBatchContended(%d) refused %v, sequential table %v", seed, op, k, refused, want)
				}
				if contended != 0 {
					t.Fatalf("seed %d op %d: single-threaded call reported contention", seed, op)
				}
			case c < 75:
				gs, gok := sh.Get(k)
				ws, wok := ref.Get(k)
				if gok != wok || gs != ws {
					t.Fatalf("seed %d op %d: Get(%d) = %+v,%v, want %+v,%v", seed, op, k, gs, gok, ws, wok)
				}
			case c < 80:
				samePartials(t, "shared drain", sh.Drain(), ref.Drain())
			case c < 83:
				sh.Reset()
				ref.Reset()
			default:
				samePartials(t, "shared partials", sh.Partials(), ref.Partials())
				var each []tuple.Partial // slot order, stripe by stripe: the same set
				sh.Each(func(k tuple.Key, s tuple.AggState) { each = append(each, tuple.Partial{Key: k, State: s}) })
				samePartials(t, "shared each", sortedDrain(each), ref.Partials())
				if sh.Len() != ref.Len() {
					t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, sh.Len(), ref.Len())
				}
			}
		}
		samePartials(t, "final", sh.Partials(), ref.Partials())
	}
}

func TestSharedBoundRefusalContract(t *testing.T) {
	sh := NewShared(2, 8)
	for _, k := range []tuple.Key{10, 20} {
		if !sh.UpdateRaw(tuple.Tuple{Key: k, Val: 1}) {
			t.Fatalf("insert %d refused below bound", k)
		}
	}
	if sh.UpdateRaw(tuple.Tuple{Key: 30, Val: 1}) {
		t.Error("new group accepted at bound")
	}
	if sh.MergePartial(tuple.Partial{Key: 30, State: tuple.NewState(1)}) {
		t.Error("new partial accepted at bound")
	}
	if !sh.UpdateRaw(tuple.Tuple{Key: 10, Val: 5}) {
		t.Error("update of resident group refused at bound")
	}
	if sh.Len() != 2 {
		t.Errorf("Len() = %d at bound, want 2", sh.Len())
	}
	s, ok := sh.Get(10)
	if !ok || s.Count != 2 || s.Sum != 6 {
		t.Errorf("group 10 state = %+v, %v", s, ok)
	}
	if sh.Cap() != 2 {
		t.Errorf("Cap() = %d, want 2", sh.Cap())
	}
}

func TestSharedStripeRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, defaultStripes}, {-3, defaultStripes}, {1, 1}, {2, 2},
		{3, 4}, {5, 8}, {64, 64}, {100, 128}, {1 << 20, maxStripes},
	}
	for _, c := range cases {
		if got := NewShared(0, c.in).Stripes(); got != c.want {
			t.Errorf("NewShared(0, %d).Stripes() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSharedDrainEmptiesAndShrinks(t *testing.T) {
	sh := NewShared(0, 4)
	for i := 0; i < 10_000; i++ {
		sh.UpdateRaw(tuple.Tuple{Key: tuple.Key(i), Val: 1})
	}
	if got := len(sh.Drain()); got != 10_000 {
		t.Fatalf("drained %d partials, want 10000", got)
	}
	if sh.Len() != 0 {
		t.Errorf("Len = %d after Drain, want 0", sh.Len())
	}
	for i := range sh.stripes {
		if slots := sh.stripes[i].t.Slots(); slots != minSlots {
			t.Errorf("stripe %d has %d slots after Drain, want %d", i, slots, minSlots)
		}
	}
}

func TestSharedOccupancyPermille(t *testing.T) {
	sh := NewShared(10, 4)
	for i := 0; i < 5; i++ {
		sh.UpdateRaw(tuple.Tuple{Key: tuple.Key(i), Val: 1})
	}
	if got := sh.OccupancyPermille(); got != 500 {
		t.Errorf("bounded occupancy = %d, want 500", got)
	}
	un := NewShared(0, 4)
	un.UpdateRaw(tuple.Tuple{Key: 1, Val: 1})
	if got := un.OccupancyPermille(); got <= 0 || got > 1000 {
		t.Errorf("unbounded occupancy = %d out of range", got)
	}
}

// TestAllocsPinSharedUpdate pins the concurrent table's steady-state
// update path at zero allocations, the same contract as the sequential
// Table. The static half is //aggvet:noalloc on UpdateRaw and the
// -require-noalloc lint gate.
func TestAllocsPinSharedUpdate(t *testing.T) {
	sh := NewShared(0, 16)
	const groups = 4096
	for i := 0; i < groups; i++ {
		sh.UpdateRaw(tuple.Tuple{Key: tuple.Key(i), Val: 1})
	}
	i := 0
	allocs := testing.AllocsPerRun(10_000, func() {
		sh.UpdateRaw(tuple.Tuple{Key: tuple.Key(i % groups), Val: 7})
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state Shared.UpdateRaw allocates %.1f per op, want 0", allocs)
	}
}

// TestAllocsPinSharedMerge pins the concurrent merge path the same way.
func TestAllocsPinSharedMerge(t *testing.T) {
	sh := NewShared(0, 16)
	const groups = 4096
	for i := 0; i < groups; i++ {
		sh.MergePartial(tuple.Partial{Key: tuple.Key(i), State: tuple.NewState(1)})
	}
	i := 0
	allocs := testing.AllocsPerRun(10_000, func() {
		sh.MergePartial(tuple.Partial{Key: tuple.Key(i % groups), State: tuple.NewState(3)})
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state Shared.MergePartial allocates %.1f per op, want 0", allocs)
	}
}
