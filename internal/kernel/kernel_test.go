package kernel

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"parallelagg/internal/tuple"
)

// recorder is an Exchange that keeps everything shipped to it. Even
// destinations hand the buffer back emptied (an encoding exchange), odd
// ones keep it (a handing-over one), so both halves of the ship contract
// run.
type recorder struct {
	t        *testing.T
	batch    int
	dest     func(tuple.Key) int
	raw      []tuple.Tuple
	partials []tuple.Partial
	reserves int
	endPhase int
}

func (r *recorder) Raw(d int, b []tuple.Tuple) ([]tuple.Tuple, error) {
	if len(b) == 0 {
		return make([]tuple.Tuple, 0, r.batch), nil
	}
	r.check(d, len(b))
	for _, t := range b {
		if r.dest(t.Key) != d {
			r.t.Fatalf("raw key %d shipped to %d, owned by %d", t.Key, d, r.dest(t.Key))
		}
	}
	r.raw = append(r.raw, b...)
	if d%2 == 1 {
		return nil, nil
	}
	return b[:0], nil
}

func (r *recorder) Partials(d int, b []tuple.Partial) ([]tuple.Partial, error) {
	if len(b) == 0 {
		return make([]tuple.Partial, 0, r.batch), nil
	}
	r.check(d, len(b))
	for _, p := range b {
		if r.dest(p.Key) != d {
			r.t.Fatalf("partial key %d shipped to %d, owned by %d", p.Key, d, r.dest(p.Key))
		}
	}
	r.partials = append(r.partials, b...)
	if d%2 == 1 {
		return nil, nil
	}
	return b[:0], nil
}

func (r *recorder) check(d, n int) {
	if n > r.batch {
		r.t.Fatalf("a buffer of %d records to %d, Batch %d", n, d, r.batch)
	}
}

func (r *recorder) Reserve(d, groups int) error {
	if groups <= 0 {
		r.t.Fatalf("reservation of %d groups to %d", groups, d)
	}
	r.reserves++
	return nil
}

func (r *recorder) EndPhase() error { r.endPhase++; return nil }

// firstRefusal is where a table bounded to bound groups, filled from ts in
// order, first meets a new group while full: len(ts) if it never does.
func firstRefusal(ts []tuple.Tuple, bound int) int {
	seen := map[tuple.Key]bool{}
	for i, t := range ts {
		if !seen[t.Key] && bound > 0 && len(seen) == bound {
			return i
		}
		seen[t.Key] = true
	}
	return len(ts)
}

func sortedTuples(ts []tuple.Tuple) []tuple.Tuple {
	ts = slices.Clone(ts)
	slices.SortFunc(ts, func(a, b tuple.Tuple) int { return cmp.Compare(a.Val, b.Val) })
	return ts
}

// One table of runs: every algorithm, three bounds (none, tiny, roomy),
// few and many groups, and the routing variants the engines use — the
// identity, a permuted owner table, a refreshed one, and a Keep filter
// that sends everything to one destination (a recovery re-extract). Each
// run's shipments must fold to the sequential fold of what it kept, and
// each algorithm must ship raw exactly the tuples its rule says.
func TestScanShipsWhatTheRuleSays(t *testing.T) {
	const n, batch, rows = 3, 64, 5000
	type variant struct {
		name    string
		owner   []int
		refresh bool
		keep    []bool
	}
	variants := []variant{
		{name: "identity"},
		{name: "permuted", owner: []int{2, 0, 1}},
		{name: "refreshed", owner: []int{1, 2, 0}, refresh: true},
		{name: "keep", owner: []int{1, 1, 1}, keep: []bool{true, false, true}},
	}
	for _, groups := range []int{10, 2000} {
		part := make([]tuple.Tuple, rows)
		for i := range part {
			part[i] = tuple.Tuple{Key: tuple.Key(i * 7 % groups), Val: int64(i)}
		}
		for _, alg := range []Algorithm{TwoPhase, Repartitioning, AdaptiveTwoPhase, AdaptiveRepartitioning} {
			for _, bound := range []int{0, 4, 1024} {
				for _, v := range variants {
					name := fmt.Sprintf("groups%d/alg%d/bound%d/%s", groups, alg, bound, v.name)
					t.Run(name, func(t *testing.T) {
						kept := part
						if v.keep != nil {
							kept = nil
							for _, tp := range part {
								if v.keep[tp.Key.Dest(n)] {
									kept = append(kept, tp)
								}
							}
						}
						var fallback atomic.Bool
						rec := &recorder{t: t, batch: batch, dest: func(k tuple.Key) int {
							if v.owner == nil {
								return k.Dest(n)
							}
							return v.owner[k.Dest(n)]
						}}
						k := Scan{Alg: alg, Bound: bound, Batch: batch,
							Dests: n, Rows: n * rows, Owner: v.owner, Keep: v.keep, Fallback: &fallback, Ex: rec}
						var progress []int
						if v.refresh {
							k.Refresh = func(scanned int) []int {
								progress = append(progress, scanned)
								return v.owner
							}
						}
						if err := k.Run(part); err != nil {
							t.Fatal(err)
						}

						want := map[tuple.Key]tuple.AggState{}
						for _, tp := range kept {
							s, ok := want[tp.Key]
							if ok {
								s.Update(tp.Val)
							} else {
								s = tuple.NewState(tp.Val)
							}
							want[tp.Key] = s
						}
						got := map[tuple.Key]tuple.AggState{}
						fold := func(key tuple.Key, s tuple.AggState) {
							if have, ok := got[key]; ok {
								s.Merge(have)
							}
							got[key] = s
						}
						for _, tp := range rec.raw {
							fold(tp.Key, tuple.NewState(tp.Val))
						}
						for _, p := range rec.partials {
							fold(p.Key, p.State)
						}
						if len(got) != len(want) {
							t.Fatalf("shipments fold to %d groups, want %d", len(got), len(want))
						}
						for key, s := range want {
							if got[key] != s {
								t.Fatalf("group %d folds to %+v, want %+v", key, got[key], s)
							}
						}

						// The raw tuples each rule ships, as a suffix or prefix of what it kept.
						// Plain 2P ships none; a switch ships everything from the first
						// refused tuple on.
						var wantRaw []tuple.Tuple
						wantSwitch := false
						switch alg {
						case Repartitioning:
							wantRaw = kept
						case AdaptiveTwoPhase:
							i := firstRefusal(kept, bound)
							wantRaw, wantSwitch = kept[i:], i < len(kept)
						case AdaptiveRepartitioning:
							// The window is bound/2 tuples. Ten groups fit either
							// bound; a two-tuple window's Chao1 is 3, which fits 4;
							// 512 distinct keys project past 1,024. Bound 0 has no
							// window.
							window := bound / 2
							if bound == 0 || (groups == 2000 && bound == 1024) {
								wantRaw = kept
								if k.FellBack || rec.endPhase != 0 {
									t.Errorf("fell back %v, %d end-of-phase calls; want Rep throughout", k.FellBack, rec.endPhase)
								}
								break
							}
							// Routes the window, then folds the rest.
							rest := kept[window:]
							i := firstRefusal(rest, bound)
							wantRaw, wantSwitch = append(slices.Clone(kept[:window]), rest[i:]...), i < len(rest)
							if !k.FellBack || !fallback.Load() || rec.endPhase != 1 {
								t.Errorf("fell back %v, flag %v, %d end-of-phase calls; want a fallback after tuple %d",
									k.FellBack, fallback.Load(), rec.endPhase, window)
							}
						}
						if got, want := sortedTuples(rec.raw), sortedTuples(wantRaw); !slices.Equal(got, want) {
							t.Errorf("shipped %d raw tuples, the rule says %d", len(got), len(want))
						}
						if k.Routed != int64(len(rec.raw)) || k.Partials != int64(len(rec.partials)) {
							t.Errorf("counted %d raw and %d partials, shipped %d and %d", k.Routed, k.Partials, len(rec.raw), len(rec.partials))
						}
						if alg == TwoPhase && bound > 0 && len(want) > bound && k.Evicted == 0 {
							t.Errorf("2P over %d groups evicted nothing from a %d-entry table", len(want), bound)
						}
						if k.Switched != wantSwitch {
							t.Errorf("switched=%v, want %v", k.Switched, wantSwitch)
						}
						if v.refresh && (len(progress) == 0 || progress[len(progress)-1] != rows || !slices.IsSorted(progress)) {
							t.Errorf("refresh saw progress %v, want ascending to %d", progress, rows)
						}
					})
				}
			}
		}
	}
}

// failing is an Exchange whose every operation fails once its budget of
// successful ones is spent.
type failing struct{ left int }

var errShip = errors.New("ship failed")

func (f *failing) op() error {
	if f.left--; f.left < 0 {
		return errShip
	}
	return nil
}

func (f *failing) Raw(_ int, b []tuple.Tuple) ([]tuple.Tuple, error) {
	if len(b) == 0 {
		return make([]tuple.Tuple, 0, 8), nil
	}
	return b[:0], f.op()
}

func (f *failing) Partials(_ int, b []tuple.Partial) ([]tuple.Partial, error) {
	if len(b) == 0 {
		return make([]tuple.Partial, 0, 8), nil
	}
	return b[:0], f.op()
}

func (f *failing) Reserve(int, int) error { return f.op() }
func (f *failing) EndPhase() error        { return f.op() }

// The first failed operation ends the run with its error, at every point
// an operation happens: a raw ship, a flush's reservation or partials, an
// end of phase.
func TestScanStopsAtFirstError(t *testing.T) {
	part := make([]tuple.Tuple, 2000)
	for i := range part {
		part[i] = tuple.Tuple{Key: tuple.Key(i % 300), Val: 1}
	}
	for _, alg := range []Algorithm{TwoPhase, Repartitioning, AdaptiveTwoPhase, AdaptiveRepartitioning} {
		for left := 0; left < 40; left++ {
			k := Scan{Alg: alg, Bound: 16, Batch: 8, Dests: 2, Rows: len(part),
				Fallback: new(atomic.Bool), Ex: &failing{left: left}}
			if err := k.Run(part); err != errShip {
				t.Fatalf("alg %d, %d good operations: Run returned %v", alg, left, err)
			}
		}
	}
}

// A scan span's note says what the switch projected, and nothing without
// a switch.
func TestNote(t *testing.T) {
	k := Scan{}
	if got := k.Note("owner"); got != "" {
		t.Errorf("no switch: note %q", got)
	}
	k.Switched, k.f1, k.f2 = true, 7, 3
	if got := k.Note("owner"); got != ", est declined (f1 7, f2 3)" {
		t.Errorf("declined: note %q", got)
	}
	k.est, k.estOK = 42, true
	if got := k.Note("range"); got != ", est 42/range (f1 7, f2 3)" {
		t.Errorf("projected: note %q", got)
	}
}

// AdaptiveRepartitioning's scan note carries its window's verdict, ahead
// of any later switch's projection: an eight-tuple window over six groups
// projects (Chao1 6 + 4²/(2·2)) to ten, which bound 16 holds; eight
// distinct keys project (Chao1 8 + 8·7/2) to 36, which it does not. A
// partition shorter than its window is never judged.
func TestARepNoteCarriesVerdict(t *testing.T) {
	for _, c := range []struct {
		rows, groups int
		want         string
	}{
		{1000, 6, ", fell back: est 10 ≤ bound 16 (f1 4, f2 2)"},
		{1000, 100, ", stayed Rep: est 36 > 16 (f1 8, f2 0)"},
		{7, 6, ""},
	} {
		part := scanInput(c.rows, c.groups)
		rec := &recorder{t: t, batch: 4, dest: func(k tuple.Key) int { return k.Dest(2) }}
		k := Scan{Alg: AdaptiveRepartitioning, Bound: 16, Batch: 4, Dests: 2, Rows: 2 * c.rows, Fallback: new(atomic.Bool), Ex: rec}
		if err := k.Run(part); err != nil {
			t.Fatal(err)
		}
		shipped := int64(len(rec.raw))
		for _, p := range rec.partials {
			shipped += p.State.Count
		}
		if shipped != int64(c.rows) {
			t.Errorf("%d rows over %d groups: shipped %d tuples' worth", c.rows, c.groups, shipped)
		}
		if got := k.Note("range"); got != c.want {
			t.Errorf("%d rows over %d groups: note %q, want %q", c.rows, c.groups, got, c.want)
		}
		if fell := c.want != "" && c.want[2] == 'f'; k.FellBack != fell || (rec.endPhase == 1) != fell {
			t.Errorf("%d rows over %d groups: fell back %v after %d end-of-phase calls, want %v", c.rows, c.groups, k.FellBack, rec.endPhase, fell)
		}
	}
}

// sizer is a recorder that notes the capacity of every partial buffer
// shipped to it and counts the fresh ones it is asked for.
type sizer struct {
	recorder
	caps  []int
	fresh int
}

func (r *sizer) Partials(d int, b []tuple.Partial) ([]tuple.Partial, error) {
	if len(b) == 0 {
		r.fresh++
	} else {
		r.caps = append(r.caps, cap(b))
	}
	return r.recorder.Partials(d, b)
}

// A table's last flush sizes its buffers to its groups: six groups over
// two destinations ship in buffers of at most six records, none asked of
// the exchange at Batch. A TwoPhase eviction still takes Batch-sized
// ones, which later evictions go on filling.
func TestLastFlushSizesBuffersToItsGroups(t *testing.T) {
	const batch, dests = 4096, 2
	six := make([]tuple.Tuple, 3000)
	for i := range six {
		six[i] = tuple.Tuple{Key: tuple.Key(i % 6), Val: 1}
	}
	for _, alg := range []Algorithm{TwoPhase, AdaptiveTwoPhase, AdaptiveRepartitioning} {
		for _, bound := range []int{0, 6} {
			if alg == AdaptiveRepartitioning && bound == 0 {
				continue // no window to fall back after: it ships no partials
			}
			r := &sizer{recorder: recorder{t: t, batch: batch, dest: func(k tuple.Key) int { return k.Dest(dests) }}}
			k := Scan{Alg: alg, Bound: bound, Batch: batch, Dests: dests, Rows: len(six),
				Fallback: new(atomic.Bool), Ex: r}
			if err := k.Run(six); err != nil {
				t.Fatal(err)
			}
			if len(r.partials) != 6 || r.fresh != 0 || len(r.caps) == 0 {
				t.Fatalf("alg %d bound %d: %d partials in %d buffers, %d fresh ones asked for", alg, bound, len(r.partials), len(r.caps), r.fresh)
			}
			for _, c := range r.caps {
				if c > 6 {
					t.Errorf("alg %d bound %d: a buffer of %d records for six groups", alg, bound, c)
				}
			}
		}
	}

	// Bound 4 over 100 groups: TwoPhase evicts 25 times or so.
	many := make([]tuple.Tuple, 3000)
	for i := range many {
		many[i] = tuple.Tuple{Key: tuple.Key(i % 100), Val: 1}
	}
	r := &sizer{recorder: recorder{t: t, batch: 64, dest: func(k tuple.Key) int { return k.Dest(dests) }}}
	k := Scan{Alg: TwoPhase, Bound: 4, Batch: 64, Dests: dests, Rows: len(many), Fallback: new(atomic.Bool), Ex: r}
	if err := k.Run(many); err != nil {
		t.Fatal(err)
	}
	for _, c := range r.caps[:len(r.caps)-dests] {
		if c != 64 {
			t.Fatalf("an eviction's buffer of %d records, want Batch 64 (all: %v)", c, r.caps)
		}
	}
}

// slotWatch is a recorder that, at every reservation and partial buffer a
// flush ships, notes the slot count of the table being flushed.
type slotWatch struct {
	recorder
	k     *Scan
	slots map[int]int // slot count → times seen
}

func (w *slotWatch) note() { w.slots[w.k.table.Slots()]++ }

func (w *slotWatch) Reserve(d, groups int) error { w.note(); return w.recorder.Reserve(d, groups) }

func (w *slotWatch) Partials(d int, b []tuple.Partial) ([]tuple.Partial, error) {
	if len(b) > 0 && w.k.table != nil {
		w.note()
	}
	return w.recorder.Partials(d, b)
}

// A bounded scan allocates its table at the bound, at its first fold, and
// never rehashes it: from that fold through every eviction or switch to
// the last flush, the table has slotsFor(Bound) slots. Repartitioning
// never takes a table; AdaptiveRepartitioning counts its window in one and
// gives it back when it stays Rep. Finish gives the table back.
func TestBoundedScanNeverRehashes(t *testing.T) {
	const dests, batch = 3, 256
	cases := []struct {
		alg           Algorithm
		bound, groups int
		slots         int // slotsFor(bound); 0: no table is ever made
		fallback      bool
	}{
		{AdaptiveTwoPhase, 16384, 1024, 32768, false}, // live_few's shape: never full
		{AdaptiveTwoPhase, 100, 5000, 128, false},     // switches
		{TwoPhase, 4096, 20000, 8192, false},          // evicts, refills the same slots
		{TwoPhase, 52, 60, 64, false},                 // at minSlots' load limit exactly
		{AdaptiveRepartitioning, 4096, 50, 8192, true},
		{AdaptiveRepartitioning, 4096, 20000, 8192, false}, // keeps routing
		{Repartitioning, 4096, 50, 0, false},
	}
	for _, c := range cases {
		part := scanInput(40_000, c.groups)
		w := &slotWatch{recorder: recorder{t: t, batch: batch, dest: func(k tuple.Key) int { return k.Dest(dests) }}, slots: map[int]int{}}
		k := &Scan{Alg: c.alg, Bound: c.bound, Batch: batch, Dests: dests, Rows: len(part),
			Fallback: new(atomic.Bool), Ex: w}
		w.k = k
		name := fmt.Sprintf("alg %d bound %d groups %d", c.alg, c.bound, c.groups)
		k.Begin()
		if k.table != nil {
			t.Fatalf("%s: Begin made a table", name)
		}
		for lo := 0; lo < len(part); lo += 1000 {
			if err := k.Scan(part[lo : lo+1000]); err != nil {
				t.Fatal(err)
			}
			if k.table != nil {
				w.note()
			}
		}
		if err := k.Finish(); err != nil {
			t.Fatal(err)
		}
		if k.table != nil {
			t.Errorf("%s: Finish kept its table", name)
		}
		if k.FellBack != c.fallback {
			t.Errorf("%s: FellBack %v, want %v", name, k.FellBack, c.fallback)
		}
		if c.alg == AdaptiveRepartitioning && !c.fallback && (k.Occ != 0 || w.slots[c.slots] != 2) {
			t.Errorf("%s: stayed Rep with a table past its 2,048-tuple window (seen %v, Occ %d)", name, w.slots, k.Occ)
		}
		if c.slots == 0 {
			if len(w.slots) != 0 || k.Occ != 0 {
				t.Errorf("%s: a routing scan had a table (slot counts %v, Occ %d)", name, w.slots, k.Occ)
			}
			continue
		}
		if len(w.slots) != 1 || w.slots[c.slots] == 0 {
			t.Errorf("%s: slot counts seen %v, want only %d", name, w.slots, c.slots)
		}
	}
}
