package aggtable

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"parallelagg/internal/tuple"
)

// oracle is the builtin-map model of the Table contract. The property
// tests run every operation against both and require identical results,
// so any divergence in the open-addressing layout (probe bugs, growth
// bugs, lost updates) surfaces as a mismatch.
type oracle struct {
	m     map[tuple.Key]tuple.AggState
	bound int
}

func newOracle(bound int) *oracle {
	return &oracle{m: make(map[tuple.Key]tuple.AggState), bound: bound}
}

func (o *oracle) updateRaw(tp tuple.Tuple) bool {
	if s, ok := o.m[tp.Key]; ok {
		s.Update(tp.Val)
		o.m[tp.Key] = s
		return true
	}
	if o.bound > 0 && len(o.m) >= o.bound {
		return false
	}
	o.m[tp.Key] = tuple.NewState(tp.Val)
	return true
}

func (o *oracle) mergePartial(p tuple.Partial) bool {
	if s, ok := o.m[p.Key]; ok {
		s.Merge(p.State)
		o.m[p.Key] = s
		return true
	}
	if o.bound > 0 && len(o.m) >= o.bound {
		return false
	}
	o.m[p.Key] = p.State
	return true
}

func (o *oracle) partials() []tuple.Partial {
	out := make([]tuple.Partial, 0, len(o.m))
	for k, s := range o.m {
		out = append(out, tuple.Partial{Key: k, State: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func samePartials(t *testing.T, ctx string, got, want []tuple.Partial) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d partials, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: partial %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// checkAgree compares every observable of the table against the oracle.
func checkAgree(t *testing.T, ctx string, tab *Table, o *oracle) {
	t.Helper()
	if tab.Len() != len(o.m) {
		t.Fatalf("%s: Len = %d, want %d", ctx, tab.Len(), len(o.m))
	}
	samePartials(t, ctx, tab.Partials(), o.partials())
	samePartials(t, ctx+" (Each)", eachSorted(tab), o.partials())
}

// eachSorted collects the unordered slot walk and sorts it, so a visit
// that is missed, repeated or stale shows as a mismatch against the
// ordered accessors.
func eachSorted(tab *Table) []tuple.Partial {
	var out []tuple.Partial
	tab.Each(func(k tuple.Key, s tuple.AggState) {
		out = append(out, tuple.Partial{Key: k, State: s})
	})
	sortPartials(out)
	return out
}

// TestPropertyAgainstMapOracle drives 50 seeded random workloads —
// mixed raw updates, partial merges, drains and resets, bounded and
// unbounded — through the table and the map oracle in lockstep.
func TestPropertyAgainstMapOracle(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))

		// Vary the shape per seed: bound (0 = unbounded), key-space
		// width (narrow spaces force collisions and updates, wide
		// spaces force growth), and op count.
		bound := 0
		if seed%3 != 0 {
			bound = 1 + rng.Intn(200)
		}
		keySpace := int64(1) << uint(3+rng.Intn(14))
		ops := 1000 + rng.Intn(3000)

		tab := New(bound)
		o := newOracle(bound)
		for op := 0; op < ops; op++ {
			k := tuple.Key(rng.Int63n(keySpace))
			switch c := rng.Intn(100); {
			case c < 55:
				v := rng.Int63n(1000) - 500
				got := tab.UpdateRaw(tuple.Tuple{Key: k, Val: v})
				want := o.updateRaw(tuple.Tuple{Key: k, Val: v})
				if got != want {
					t.Fatalf("seed %d op %d: UpdateRaw(%d) = %v, oracle %v", seed, op, k, got, want)
				}
			case c < 75:
				p := tuple.Partial{Key: k, State: tuple.NewState(rng.Int63n(1000))}
				got := tab.MergePartial(p)
				want := o.mergePartial(p)
				if got != want {
					t.Fatalf("seed %d op %d: MergePartial(%d) = %v, oracle %v", seed, op, k, got, want)
				}
			case c < 80:
				gs, gok := tab.Get(k)
				ws, wok := o.m[k]
				if gok != wok || gs != ws {
					t.Fatalf("seed %d op %d: Get(%d) = %+v,%v, oracle %+v,%v", seed, op, k, gs, gok, ws, wok)
				}
			case c < 83:
				samePartials(t, "drain", tab.Drain(), o.partials())
				o.m = make(map[tuple.Key]tuple.AggState)
			case c < 85:
				tab.Reset()
				o.m = make(map[tuple.Key]tuple.AggState)
			default:
				checkAgree(t, "spot check", tab, o)
			}
			if tab.Len() != len(o.m) {
				t.Fatalf("seed %d op %d: Len() = %d, oracle %d", seed, op, tab.Len(), len(o.m))
			}
		}
		checkAgree(t, "final", tab, o)
	}
}

// Property: splitting a stream in two, aggregating each half in its own
// bounded table, then merging the drained partials of both into a third,
// equals aggregating the whole stream in one table. This is the two-phase
// correctness argument every algorithm of the paper rests on.
func TestTwoPhaseEqualsOnePhaseProperty(t *testing.T) {
	f := func(a, b []struct {
		K uint8
		V int16
	}) bool {
		one := New(512)
		ta, tb := New(512), New(512)
		for _, r := range a {
			tp := tuple.Tuple{Key: tuple.Key(r.K), Val: int64(r.V)}
			one.UpdateRaw(tp)
			ta.UpdateRaw(tp)
		}
		for _, r := range b {
			tp := tuple.Tuple{Key: tuple.Key(r.K), Val: int64(r.V)}
			one.UpdateRaw(tp)
			tb.UpdateRaw(tp)
		}
		merged := New(512)
		for _, p := range append(ta.Drain(), tb.Drain()...) {
			merged.MergePartial(p)
		}
		got, want := merged.Partials(), one.Partials()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundRefusalContract(t *testing.T) {
	tab := New(2)
	for _, k := range []tuple.Key{10, 20} {
		if !tab.UpdateRaw(tuple.Tuple{Key: k, Val: 1}) {
			t.Fatalf("insert %d refused below bound", k)
		}
	}
	if tab.UpdateRaw(tuple.Tuple{Key: 30, Val: 1}) {
		t.Error("new group accepted at bound")
	}
	if tab.MergePartial(tuple.Partial{Key: 30, State: tuple.NewState(1)}) {
		t.Error("new partial accepted at bound")
	}
	// Existing groups must still absorb updates at the bound.
	if !tab.UpdateRaw(tuple.Tuple{Key: 10, Val: 5}) {
		t.Error("update of resident group refused at bound")
	}
	if tab.Len() != tab.Cap() {
		t.Errorf("Len() = %d at bound %d", tab.Len(), tab.Cap())
	}
	s, ok := tab.Get(10)
	if !ok || s.Count != 2 || s.Sum != 6 {
		t.Errorf("group 10 state = %+v, %v", s, ok)
	}
}

func TestDrainEmptiesAndShrinks(t *testing.T) {
	tab := New(0)
	for i := 0; i < 10_000; i++ {
		tab.UpdateRaw(tuple.Tuple{Key: tuple.Key(i), Val: 1})
	}
	if tab.Slots() == minSlots {
		t.Fatal("table never grew")
	}
	if got := len(tab.Drain()); got != 10_000 {
		t.Fatalf("drained %d partials, want 10000", got)
	}
	if tab.Len() != 0 || tab.Slots() != minSlots {
		t.Errorf("after Drain: Len=%d Slots=%d, want 0/%d", tab.Len(), tab.Slots(), minSlots)
	}
}

// The slot walk must see every live entry exactly once whatever the
// table has been through: each doubling rebuilds the slot array, Drain
// and Reset empty it. Checked right after every grow(), where a stale or
// half-copied array would show.
func TestEachVisitsEveryEntryOnceAcrossGrowth(t *testing.T) {
	tab := New(0)
	slots, grows := tab.Slots(), 0
	check := func(ctx string, want int) {
		t.Helper()
		seen := make(map[tuple.Key]int, want)
		tab.Each(func(k tuple.Key, s tuple.AggState) {
			seen[k]++
			if s.Count != 2 || s.Sum != 2*int64(k) {
				t.Fatalf("%s: key %d visited with state %+v", ctx, k, s)
			}
		})
		if len(seen) != want {
			t.Fatalf("%s: visited %d distinct keys, want %d", ctx, len(seen), want)
		}
		for k, n := range seen {
			if n != 1 || int(k) >= want {
				t.Fatalf("%s: key %d visited %d times", ctx, k, n)
			}
		}
	}
	check("empty", 0)
	for i := 0; i < 5_000; i++ {
		tab.UpdateRaw(tuple.Tuple{Key: tuple.Key(i), Val: int64(i)})
		tab.UpdateRaw(tuple.Tuple{Key: tuple.Key(i), Val: int64(i)})
		if tab.Slots() != slots {
			slots = tab.Slots()
			grows++
			check("after grow", i+1)
		}
	}
	if grows < 5 {
		t.Fatalf("table grew %d times, want at least 5", grows)
	}
	check("full", 5_000)
	tab.Reset()
	check("after Reset", 0)
	tab.UpdateRaw(tuple.Tuple{Key: 0, Val: 0})
	tab.UpdateRaw(tuple.Tuple{Key: 0, Val: 0})
	tab.Drain()
	check("after Drain", 0)
}

func TestNewSizedAvoidsGrowth(t *testing.T) {
	tab := NewSized(0, 10_000)
	before := tab.Slots()
	for i := 0; i < 10_000; i++ {
		tab.UpdateRaw(tuple.Tuple{Key: tuple.Key(i), Val: 1})
	}
	if tab.Slots() != before {
		t.Errorf("sized table grew from %d to %d slots", before, tab.Slots())
	}
}

// pourSource is a table of n groups, the shape a dist stage or a live
// merge table has when it is poured into another table.
func pourSource(n int) *Table {
	src := New(0)
	for i := 0; i < n; i++ {
		src.UpdateRaw(tuple.Tuple{Key: tuple.Key(i * 7919), Val: int64(i)})
	}
	return src
}

// TestReserveThenPour: after Reserve(src.Len()) a whole Each pour never
// grows the destination, lands every group, and a second Reserve that
// already fits does nothing.
func TestReserveThenPour(t *testing.T) {
	src := pourSource(20_000)
	dst, o := New(0), newOracle(0)
	for i := 0; i < 3_000; i++ { // overlaps src's first keys
		p := tuple.Partial{Key: tuple.Key(i * 7919), State: tuple.NewState(-1)}
		dst.MergePartial(p)
		o.mergePartial(p)
	}
	dst.Reserve(src.Len())
	slots := dst.Slots()
	if want := slotsFor(3_000 + 20_000); slots != want {
		t.Fatalf("Reserve(%d) on %d entries: %d slots, want %d", src.Len(), 3_000, slots, want)
	}
	checkAgree(t, "after Reserve", dst, o)
	src.Each(func(k tuple.Key, s tuple.AggState) {
		p := tuple.Partial{Key: k, State: s}
		if !dst.MergePartial(p) {
			t.Fatalf("unbounded table refused key %d", k)
		}
		o.mergePartial(p)
	})
	if dst.Slots() != slots {
		t.Errorf("pour grew the reserved table from %d to %d slots", slots, dst.Slots())
	}
	checkAgree(t, "after pour", dst, o)
	dst.Reserve(10)
	if dst.Slots() != slots {
		t.Errorf("Reserve that already fits changed the slot array: %d -> %d", slots, dst.Slots())
	}
}

func TestOccupancyPermille(t *testing.T) {
	tab := New(10)
	for i := 0; i < 5; i++ {
		tab.UpdateRaw(tuple.Tuple{Key: tuple.Key(i), Val: 1})
	}
	if got := tab.OccupancyPermille(); got != 500 {
		t.Errorf("bounded occupancy = %d, want 500", got)
	}
	un := New(0)
	un.UpdateRaw(tuple.Tuple{Key: 1, Val: 1})
	if got := un.OccupancyPermille(); got <= 0 || got > 1000 {
		t.Errorf("unbounded occupancy = %d out of range", got)
	}
}

// TestAllocsPinUpdate pins the steady-state data plane: once a table has
// seen its groups, folding more tuples into it must allocate nothing.
// CI runs these via `go test -run AllocsPin` as the allocation-regression
// gate.
func TestAllocsPinUpdate(t *testing.T) {
	tab := New(0)
	const groups = 4096
	for i := 0; i < groups; i++ {
		tab.UpdateRaw(tuple.Tuple{Key: tuple.Key(i), Val: 1})
	}
	i := 0
	allocs := testing.AllocsPerRun(10_000, func() {
		tab.UpdateRaw(tuple.Tuple{Key: tuple.Key(i % groups), Val: 7})
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state UpdateRaw allocates %.1f per op, want 0", allocs)
	}
}

// TestAllocsPinMerge pins the merge path the same way.
func TestAllocsPinMerge(t *testing.T) {
	tab := New(0)
	const groups = 4096
	for i := 0; i < groups; i++ {
		tab.MergePartial(tuple.Partial{Key: tuple.Key(i), State: tuple.NewState(1)})
	}
	i := 0
	allocs := testing.AllocsPerRun(10_000, func() {
		tab.MergePartial(tuple.Partial{Key: tuple.Key(i % groups), State: tuple.NewState(3)})
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state MergePartial allocates %.1f per op, want 0", allocs)
	}
}

// TestAllocsPinInsertWithinCapacity pins insertion into a pre-sized
// table: no rehash, no per-entry allocation.
func TestAllocsPinInsertWithinCapacity(t *testing.T) {
	const n = 8192
	tab := NewSized(0, n)
	i := 0
	allocs := testing.AllocsPerRun(n, func() {
		tab.UpdateRaw(tuple.Tuple{Key: tuple.Key(i), Val: 1})
		i++
	})
	if allocs != 0 {
		t.Errorf("pre-sized insert allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkPourSlotOrder pours one table's Each walk (slot order, i.e.
// hash order) into an empty unbounded table, the way dist's tryCommit
// folds a stage into final. Without Reserve the destination doubles as it
// fills and every too-small array takes the walk front to back as one
// long probe chain; with it the pour is one pass of short probes.
func BenchmarkPourSlotOrder(b *testing.B) {
	src := pourSource(1 << 17)
	for _, reserve := range []bool{false, true} {
		name := "grow"
		if reserve {
			name = "reserve"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst := New(0)
				if reserve {
					dst.Reserve(src.Len())
				}
				src.Each(func(k tuple.Key, s tuple.AggState) {
					dst.MergePartial(tuple.Partial{Key: k, State: s})
				})
				if dst.Len() != src.Len() {
					b.Fatalf("poured %d groups, want %d", dst.Len(), src.Len())
				}
			}
		})
	}
}

// TestOwnerFilteredKeysProbeAsAnyKeys: an owner's table holds only keys
// that tuple.Key.Dest sends it, so Dest must not read the bits its home
// slot or control byte does, or the owner's keys crowd into a fraction of
// its home slots. The mean probe displacement, (slot − home) & mask over
// every group, of keys filtered to Dest(n) == 0 must be within 5 % of
// unfiltered keys' at the same load. Dest as Hash() % n read the home
// slot's low bits: 0.50 extra probes at n = 1, 0.68 at n = 2, 1.09 at n = 4.
func TestOwnerFilteredKeysProbeAsAnyKeys(t *testing.T) {
	const groups = 1 << 16
	displacement := func(n int) float64 {
		tab := NewSized(0, groups)
		defer tab.Release()
		for k := tuple.Key(0); tab.Len() < groups; k++ {
			if k.Dest(n) == 0 {
				tab.FoldRows([]tuple.Tuple{{Key: k, Val: 1}})
			}
		}
		sum := uint64(0)
		tab.Each(func(k tuple.Key, _ tuple.AggState) {
			i, _ := tab.find(k)
			sum += (uint64(i) - tab.home(k.Hash())) & tab.mask
		})
		return float64(sum) / groups
	}
	base := displacement(1)
	t.Logf("n = 1: %.3f extra probes per key", base)
	for _, n := range []int{2, 4} {
		d := displacement(n)
		t.Logf("n = %d: %.3f extra probes per key (%.3fx n = 1)", n, d, d/base)
		if d > 1.05*base || d < 0.95*base {
			t.Errorf("keys owned by node 0 of %d probe %.3f slots past home, %.3fx the %.3f of all keys: Dest reads the home slot's bits", n, d, d/base, base)
		}
	}
}
