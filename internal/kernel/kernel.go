// Package kernel is the per-node loop of paper §3.2, written once for the
// real engines: fold the partition into a bounded table, test the switch
// rule, ship partials or raw tuples to the owner of each key's group.
// internal/live runs it over channels, internal/dist over TCP peers and
// epoch-tagged streams; the simulator's internal/core keeps the paper's
// spilling 2P, which its figures need. Whatever a scan ships, the merge
// side folds it in any order to the sequential fold: AggState folds are
// commutative and associative.
//
// The table is allocated at its bound, at the scan's first fold: a bounded
// table of slotsFor(Bound) slots never rehashes, and its few groups in a
// workload like live_few sit sparse, where the probe is cheapest (the
// aggtable package doc). Its memory comes from aggtable's slab pool and
// goes back there when Finish releases the table, so later runs reuse it.
// Bound 0 is an unbounded table, which starts small and grows.
//
// A folding chunk is one aggtable.Table.UpdateRows call; only the tuples
// it refuses (new groups at a full table) come back one by one. TwoPhase
// then evicts the full table to the owners as partials and folds on into
// the emptied one (in-stream early aggregation, never raw);
// AdaptiveTwoPhase flushes it and routes every later tuple raw, the
// switch. Near its bound an adaptive scan folds at most the table's room
// per call, so it switches at the first refused tuple and projects from a
// table without the chunk's later repeats. AdaptiveRepartitioning routes
// its window, the first Bound/2 tuples, and counts them in the table; at
// the window's end sample.FallBack judges Chao1 over their profile.
//
// A flush walks the table twice: to count each destination's groups, sent
// ahead as a reservation floor (at a switch raised to the §3.1 projection
// sample.ProjectOwnerGroups), and to append the groups, unsorted, to the
// destinations' buffers. A buffer the table's last flush starts (at a
// switch or the end of the scan, not at a TwoPhase eviction) is sized to
// the groups it has left for that destination, at most Batch: a flush of
// six groups allocates six records, not Batch.
package kernel

import (
	"fmt"
	"sync/atomic"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/sample"
	"parallelagg/internal/tuple"
)

// Algorithm is one of the paper's four partitioned strategies; live and
// dist define theirs from these.
type Algorithm int

const (
	TwoPhase Algorithm = iota
	Repartitioning
	AdaptiveTwoPhase
	AdaptiveRepartitioning
)

// String returns the paper's abbreviation.
func (a Algorithm) String() string {
	if names := [...]string{"2P", "Rep", "A-2P", "A-Rep"}; a >= 0 && int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Exchange is where a scan's output goes; its first error ends the scan.
// Raw(d, b) ships b's records (at most Batch) to destination d and returns
// the buffer to fill next: b emptied, or nil if it kept b — the kernel then
// asks with Raw(d, nil), which ships nothing, for a fresh one. Partials
// likewise, except that a table's last flush, holding fewer than Batch
// groups for d, makes its fresh buffer itself, only as large as they
// need: a partial buffer the kernel ships may be of any capacity.
type Exchange interface {
	Raw(d int, b []tuple.Tuple) ([]tuple.Tuple, error)
	Partials(d int, b []tuple.Partial) ([]tuple.Partial, error)
	// Reserve tells destination d to make room for groups groups, ahead
	// of a flush's partials.
	Reserve(d, groups int) error
	// EndPhase announces AdaptiveRepartitioning's fallback to the other
	// scans, beyond the Fallback flag this one shares.
	EndPhase() error
}

// Scan is one run of the loop. Set the configuration fields, then Run —
// or Begin, Scan and Finish, with Partial in between for a caller that
// has partials of its own to ship (live's shared front). A Scan is a
// value the caller keeps (live, one in each worker), so a run allocates
// only its table and per-destination slices.
type Scan struct {
	Alg   Algorithm
	Bound int // the table's group bound; 0 = unbounded
	Batch int // tuples per chunk, and the most records a buffer holds
	Dests int // destinations, and the merge ranges keys hash to (Key.Dest)
	// Rows is the input a switch projects its group estimate over;
	// AdaptiveRepartitioning's rule projects over a destination's share.
	Rows int

	// Owner maps a merge range to the destination that owns it (nil: the
	// identity). Refresh, if set, replaces it before every chunk and the
	// final flush; it is given the tuples scanned so far. Keep, if set,
	// drops every key whose range it does not mark.
	Owner   []int
	Refresh func(scanned int) []int
	Keep    []bool

	// Fallback is AdaptiveRepartitioning's end-of-phase flag, shared with
	// whoever else may raise it.
	Fallback *atomic.Bool
	Ex       Exchange

	// Outcome, valid after Finish.
	FellBack bool  // AdaptiveRepartitioning fell back to folding
	Switched bool  // a full table switched the scan to routing
	Routed   int64 // raw tuples shipped
	Partials int64 // partials shipped
	Evicted  int64 // groups TwoPhase evicted from a full table
	Occ      int   // the table's high-water occupancy at a flush, permille

	//aggvet:owner scan
	table *aggtable.Table
	//aggvet:owner scan
	raw [][]tuple.Tuple
	//aggvet:owner scan
	part [][]tuple.Partial
	//aggvet:owner scan
	left []int // groups a last flush has yet to ship to each destination

	refused []int         // the chunk fold's refusals
	kept    []tuple.Tuple // the chunk Keep filtered

	// The switch's projection: groups per destination, made when estOK,
	// from the full table's count profile.
	est, f1, f2 int
	estOK       bool
	verdict     string // AdaptiveRepartitioning's note, once its window is judged

	routing, listening bool
	observed, scanned  int
}

// Run scans part from start to finish.
//
//aggvet:loop scan
func (k *Scan) Run(part []tuple.Tuple) error {
	k.Begin()
	if err := k.Scan(part); err != nil {
		return err
	}
	return k.Finish()
}

// Begin readies a fresh Scan's state for its run. The table comes with
// the first chunk the scan folds, so a scan that only routes never takes
// one.
func (k *Scan) Begin() {
	k.raw = make([][]tuple.Tuple, k.Dests)
	k.part = make([][]tuple.Partial, k.Dests)
	k.left = make([]int, k.Dests)
	k.routing = k.Alg == Repartitioning || k.Alg == AdaptiveRepartitioning
	k.listening = k.Alg == AdaptiveRepartitioning
}

// Scan aggregates or routes part, a chunk at a time.
func (k *Scan) Scan(part []tuple.Tuple) error {
	for lo := 0; lo < len(part); lo += k.Batch {
		if k.Refresh != nil {
			k.Owner = k.Refresh(k.scanned + lo)
		}
		seg := part[lo:min(lo+k.Batch, len(part))]
		if k.Keep != nil {
			seg = k.filter(seg)
		}
		if err := k.chunk(seg); err != nil {
			return err
		}
	}
	k.scanned += len(part)
	return nil
}

// Finish flushes the table, releases it, and ships every buffer that
// holds records.
func (k *Scan) Finish() error {
	if k.Refresh != nil {
		k.Owner = k.Refresh(k.scanned)
	}
	if k.listening && k.table != nil { // a window never judged: it went out raw
		k.table.Reset()
	}
	err := k.flush(last)
	if k.table != nil {
		k.table.Release()
		k.table = nil
	}
	if err != nil {
		return err
	}
	for d := range k.Dests {
		raw, part := k.raw[d], k.part[d]
		k.raw[d], k.part[d] = nil, nil
		if len(raw) > 0 {
			if _, err := k.Ex.Raw(d, raw); err != nil {
				return err
			}
		}
		if len(part) > 0 {
			if _, err := k.Ex.Partials(d, part); err != nil {
				return err
			}
		}
	}
	return nil
}

// chunk is the per-chunk dispatch on the scan's mode, which a tuple may
// change.
func (k *Scan) chunk(seg []tuple.Tuple) error {
	for len(seg) > 0 {
		switch {
		case k.listening:
			i, err := k.observe(seg)
			if err != nil {
				return err
			}
			seg = seg[i:]
		case k.routing:
			return k.routeAll(seg)
		default:
			if k.table == nil {
				k.table = aggtable.NewSized(k.Bound, k.Bound)
			}
			n := k.fold(seg)
			for _, ix := range k.refused {
				if err := k.refuse(seg[ix]); err != nil {
					return err
				}
			}
			seg = seg[n:]
		}
	}
	return nil
}

// fold folds a prefix of seg into the table and returns its length; the
// indexes it refused are left in k.refused. An adaptive scan near its
// bound folds at most the table's room (see the package comment).
//
//aggvet:noalloc
func (k *Scan) fold(seg []tuple.Tuple) int {
	n := len(seg)
	if k.Alg != TwoPhase && k.Bound > 0 {
		n = min(n, max(k.Bound-k.table.Len(), 1))
	}
	k.refused = k.table.UpdateRows(seg[:n], k.refused[:0])
	return n
}

// refuse takes one tuple the chunk fold refused: its group is new and the
// table was full. An adaptive fold refuses at most one tuple, so only
// TwoPhase, which never routes, comes back here after a flush.
func (k *Scan) refuse(t tuple.Tuple) error {
	if k.table.UpdateRaw(t) { // an eviction earlier in the chunk made room
		return nil
	}
	if k.Alg == TwoPhase {
		k.Evicted += int64(k.table.Len())
		if err := k.flush(evict); err != nil {
			return err
		}
		k.table.UpdateRaw(t)
		return nil
	}
	if err := k.flush(switchOver); err != nil {
		return err
	}
	k.routing, k.Switched = true, true
	return k.routeAll([]tuple.Tuple{t})
}

// observe is AdaptiveRepartitioning before its fallback. Between chunks it
// watches the Fallback flag; it routes seg, counting what falls in its
// window in the table, and at the window's end judges it. It returns how
// many tuples it routed; fewer than len(seg) means the scan fell back and
// folds the rest into the table, emptied: the window went out raw.
func (k *Scan) observe(seg []tuple.Tuple) (n int, err error) {
	window := k.Bound/2 - k.observed
	switch {
	case k.Fallback.Load(): // raised by another scan, or relayed back to this one
	case window <= 0: // no window (bound 0), or judged: Rep
		return len(seg), k.routeAll(seg)
	default:
		if k.table == nil {
			k.table = aggtable.NewSized(k.Bound, k.Bound)
		}
		n = min(window, len(seg))
		k.refused = k.table.UpdateRows(seg[:n], k.refused[:0]) // at most Bound/2 groups: none refused
		k.observed += n
		if err = k.routeAll(seg[:n]); err != nil || n < window {
			return n, err
		}
		var prof sample.Profile
		k.table.Each(func(_ tuple.Key, s tuple.AggState) { prof.Add(s.Count) })
		est, fell := sample.FallBack(sample.Chao1(k.table.Len(), prof.F1, prof.F2), k.Rows/k.Dests, k.Bound)
		k.verdict = ", " + sample.Verdict(est, k.Bound, fell, prof)
		if !fell {
			k.table.Release()
			k.table = nil
			return n, nil
		}
		k.Fallback.Store(true)
		err = k.Ex.EndPhase()
	}
	k.FellBack, k.listening, k.routing = true, false, false
	if k.table != nil {
		k.table.Reset()
	}
	return n, err
}

// routeAll routes every tuple of seg, shipping each buffer as it fills.
func (k *Scan) routeAll(seg []tuple.Tuple) error {
	for len(seg) > 0 {
		i, d := k.route(seg)
		k.Routed += int64(i)
		seg = seg[i:]
		if d < 0 {
			return nil
		}
		b, err := k.Ex.Raw(d, k.raw[d])
		if err == nil && b == nil {
			b, err = k.Ex.Raw(d, nil)
		}
		if err != nil {
			return err
		}
		k.raw[d] = b
	}
	return nil
}

// route appends seg's tuples to their destinations' buffers. It stops at
// the first tuple whose buffer is full (or not yet handed out) and returns
// how many it took and that destination, or -1 when it took them all.
//
//aggvet:noalloc
func (k *Scan) route(seg []tuple.Tuple) (int, int) {
	for i, t := range seg {
		d := k.dest(t.Key)
		if b := k.raw[d]; len(b) == cap(b) || len(b) >= k.Batch {
			return i, d
		}
		k.raw[d] = append(k.raw[d], t)
	}
	return len(seg), -1
}

// dest is the destination of key's merge range.
//
//aggvet:noalloc
func (k *Scan) dest(key tuple.Key) int {
	d := key.Dest(k.Dests)
	if k.Owner != nil {
		return k.Owner[d]
	}
	return d
}

// filter returns the tuples of seg that Keep marks, in a reused buffer.
func (k *Scan) filter(seg []tuple.Tuple) []tuple.Tuple {
	k.kept = k.kept[:0]
	for _, t := range seg {
		if k.Keep[t.Key.Dest(k.Dests)] {
			k.kept = append(k.kept, t)
		}
	}
	return k.kept
}

// Why a flush empties the table.
type flushKind int

const (
	evict      flushKind = iota // TwoPhase's table is full; later evictions fill the same buffers
	switchOver                  // an adaptive scan's is full: it projects, then routes (see the package comment)
	last                        // the scan is done
)

// flush ships the table's groups to their owners as partials and empties
// it. Every flush but an eviction ships the table's last partials, so a
// buffer it starts holds at most the groups it has left for the owner.
func (k *Scan) flush(why flushKind) error {
	if k.table == nil { // the scan never folded
		return nil
	}
	k.Occ = max(k.Occ, k.table.OccupancyPermille())
	if k.table.Len() == 0 {
		return nil
	}
	var prof sample.Profile
	k.table.Each(func(key tuple.Key, s tuple.AggState) {
		k.left[k.dest(key)]++
		prof.Add(s.Count)
	})
	floor := 0
	if why == switchOver {
		k.f1, k.f2 = prof.F1, prof.F2
		if k.est, k.estOK = sample.ProjectOwnerGroups(k.table.Len(), prof.F1, prof.F2, k.Rows, k.Dests); k.estOK {
			floor = k.est
		}
	}
	for d, n := range k.left {
		if n = max(n, floor); n > 0 {
			if err := k.Ex.Reserve(d, n); err != nil {
				return err
			}
		}
	}
	if why == evict {
		clear(k.left)
	}
	var err error
	k.table.Each(func(key tuple.Key, s tuple.AggState) {
		if err == nil {
			err = k.Partial(tuple.Partial{Key: key, State: s})
		}
	})
	k.table.Reset()
	return err
}

// Partial ships one partial to the owner of its group, in a buffer of
// Batch records or, in a table's last flush, of what it has left for the
// owner.
func (k *Scan) Partial(p tuple.Partial) (err error) {
	d := k.dest(p.Key)
	b := k.part[d]
	if len(b) == cap(b) || len(b) >= k.Batch {
		if len(b) > 0 {
			if b, err = k.Ex.Partials(d, b); err != nil {
				return err
			}
		}
		need := k.Batch
		if n := k.left[d]; n > 0 {
			need = min(n, need)
		}
		if cap(b) < need {
			if need < k.Batch {
				b = make([]tuple.Partial, 0, need)
			} else if b, err = k.Ex.Partials(d, nil); err != nil {
				return err
			}
		}
	}
	k.part[d] = append(b, p)
	k.left[d] = max(k.left[d]-1, 0)
	k.Partials++
	return nil
}

// Note describes for a scan span AdaptiveRepartitioning's verdict on its
// window and the switch's projection, per naming what a destination is;
// it is empty when the scan did neither.
func (k *Scan) Note(per string) string {
	switch {
	case !k.Switched:
		return k.verdict
	case !k.estOK:
		return k.verdict + fmt.Sprintf(", est declined (f1 %d, f2 %d)", k.f1, k.f2)
	}
	return k.verdict + fmt.Sprintf(", est %d/%s (f1 %d, f2 %d)", k.est, per, k.f1, k.f2)
}
