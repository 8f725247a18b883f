package dist

import (
	"fmt"
	"sync/atomic"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/sample"
	"parallelagg/internal/tuple"
)

// scanner is one run of the per-node program of paper §3.2 — scan, fold
// into a bounded table, test the switch rule, ship partials or raw tuples
// to the key's owner — and the only scan loop of the package: a
// fail-fast node's scan, a tolerant node's primary scan and its recovery
// jobs all run it. The merge side never needs to know which algorithm
// ran; what differs between the callers is where keys go and what a
// failed write means, and both come in from the caller.
type scanner struct {
	alg Algorithm
	cfg Config // TableEntries, Batch, InitSeg and SwitchRatio

	// owner maps a merge range (Key.Dest) to the node that owns it:
	// fail-fast's identity, tolerant's ownerPtr snapshot, or every range
	// to the takeover worker for a recovery job's re-extract. refresh, if
	// set, replaces it every Batch tuples and before the final flush; it
	// is given the number of tuples scanned so far, which a tolerant
	// node's primary scan publishes as its heartbeat progress.
	owner   []int
	refresh func(scanned int) []int
	// keep, if set, drops every key whose range it does not mark (a
	// recovery job's re-extract).
	keep []bool
	tag  streamID // the stream every frame of the run belongs to
	// fallback is A-Rep's end-of-phase flag, shared with the merge side.
	fallback *atomic.Bool
	m        *metrics
	// recovery marks a recovery job: its bounded-table switch is a
	// downgrade, not an adaptive strategy switch.
	recovery bool

	// The ship functions: a batch of raw tuples or partials to node d, and
	// A-Rep's end-of-phase broadcast. They carry the mode's error policy —
	// fail-fast returns the first *NodeError, tolerant marks the peer down
	// and returns nil — and its accounting. None of them keeps its slice.
	raw      func(d int, s streamID, ts []tuple.Tuple) error
	partials func(d int, s streamID, ps []tuple.Partial) error
	endPhase func() error
	// reserve, if set, posts the node's own merge loop a reservation target
	// (fail-fast only: a tolerant node stages per stream and reserves its
	// final table at commit). estNote is the switch's estimate, for the
	// scan span.
	reserve func(groups int) error
	estNote string
}

// run scans part and reports whether the node switched strategy; the
// first ship error ends it.
func (sc *scanner) run(part []tuple.Tuple) (switched bool, err error) {
	n, batch, owner, keep := len(sc.owner), sc.cfg.Batch, sc.owner, sc.keep
	local := aggtable.New(sc.cfg.TableEntries)
	routing := sc.alg == Repartitioning || sc.alg == AdaptiveRepartitioning
	// A-Rep listens for the end of phase until it falls back, and watches
	// the distinct groups of its first InitSeg tuples to declare it itself.
	listen := sc.alg == AdaptiveRepartitioning
	observing := listen
	obsSeen := 0
	obsGroups := make(map[tuple.Key]struct{})
	threshold := max(1, int(sc.cfg.SwitchRatio*float64(sc.cfg.InitSeg)))

	rawBuf := make([][]tuple.Tuple, n)
	partBuf := make([][]tuple.Partial, n)
	flush := func(owner []int) error {
		return flushPartials(local, sc.m, partBuf, batch,
			func(k tuple.Key) int { return owner[k.Dest(n)] },
			func(d int, ps []tuple.Partial) error { return sc.partials(d, sc.tag, ps) })
	}

	for lo := 0; lo < len(part); lo += batch {
		if sc.refresh != nil {
			owner = sc.refresh(lo)
		}
		for _, t := range part[lo:min(lo+batch, len(part))] {
			if keep != nil && !keep[t.Key.Dest(n)] {
				continue
			}
			if listen {
				if sc.fallback.Load() {
					// Someone (possibly us, via a relayed frame) declared
					// end-of-phase: fall back to local aggregation.
					listen, observing, routing, switched = false, false, false, true
					sc.m.switched("local")
				} else if observing {
					obsSeen++
					if len(obsGroups) <= threshold {
						obsGroups[t.Key] = struct{}{}
					}
					if len(obsGroups) > threshold {
						observing = false // plenty of groups: keep routing
					} else if obsSeen >= sc.cfg.InitSeg {
						listen, observing, routing, switched = false, false, false, true
						sc.fallback.Store(true)
						sc.m.switched("local")
						if err := sc.endPhase(); err != nil {
							return switched, err
						}
					}
				}
			}
			if !routing {
				if local.UpdateRaw(t) {
					continue
				}
				// Refused: t opens a new group and the table is at its bound.
				if err := sc.project(local, n*len(part)); err != nil {
					return switched, err
				}
				if err := flush(owner); err != nil {
					return switched, err
				}
				if sc.alg == TwoPhase {
					// Plain 2P with a hard bound: that was a memory-pressure
					// eviction of the full table; keep aggregating.
					local.UpdateRaw(t)
					continue
				}
				// The A-2P switch, over a real network this time; for a
				// recovery job, the graceful downgrade to raw shipping
				// instead of a failed recovery.
				routing, switched = true, true
				if sc.recovery {
					sc.m.downgrade()
				} else {
					sc.m.switched("repart")
				}
			}
			d := owner[t.Key.Dest(n)]
			rawBuf[d] = append(rawBuf[d], t)
			if len(rawBuf[d]) >= batch {
				if err := sc.raw(d, sc.tag, rawBuf[d]); err != nil {
					return switched, err
				}
				rawBuf[d] = rawBuf[d][:0]
			}
		}
	}
	if sc.refresh != nil {
		owner = sc.refresh(len(part))
	}
	if err := flush(owner); err != nil {
		return switched, err
	}
	for d, ts := range rawBuf {
		if len(ts) > 0 {
			if err := sc.raw(d, sc.tag, ts); err != nil {
				return switched, err
			}
		}
	}
	return switched, nil
}

// project reserves the node's own merge table, ahead of an A-2P switch's
// flush, for its range's groups as estimated from the full table. A node
// sees only its own partition, so rows = n × its length: equal partitions.
func (sc *scanner) project(tbl *aggtable.Table, rows int) error {
	if sc.reserve == nil || sc.alg == TwoPhase {
		return nil
	}
	var prof sample.Profile
	tbl.Each(func(_ tuple.Key, s tuple.AggState) { prof.Add(s.Count) })
	est, ok := sample.ProjectOwnerGroups(tbl.Len(), prof.F1, prof.F2, rows, len(sc.owner))
	if !ok || est == 0 { // a zero target would read as a frame
		sc.estNote = fmt.Sprintf(", est declined (f1 %d, f2 %d)", prof.F1, prof.F2)
		return nil
	}
	sc.estNote = fmt.Sprintf(", est %d/range (f1 %d, f2 %d)", est, prof.F1, prof.F2)
	return sc.reserve(est)
}

// flushPartials empties a scan-side table onto the wire: one slot-order walk
// (Each), then Reset — no sort. One goroutine fills the table in partition
// order, so every frame is a function of the partition. Each group goes to
// the destination dest names, through that destination's reusable slice in
// bufs, in frames of at most batch records — the table may be unbounded, a
// frame is not. write ships one frame; the first error ends the flush.
func flushPartials(tbl *aggtable.Table, m *metrics, bufs [][]tuple.Partial, batch int,
	dest func(tuple.Key) int, write func(d int, ps []tuple.Partial) error) error {
	m.occupancy(tbl.Len(), tbl.Cap())
	if tbl.Len() == 0 {
		return nil
	}
	var err error
	ship := func(d int) {
		err = write(d, bufs[d])
		bufs[d] = bufs[d][:0]
	}
	tbl.Each(func(k tuple.Key, s tuple.AggState) {
		if err != nil {
			return
		}
		d := dest(k)
		bufs[d] = append(bufs[d], tuple.Partial{Key: k, State: s})
		if len(bufs[d]) >= batch {
			ship(d)
		}
	})
	for d := range bufs {
		if err == nil && len(bufs[d]) > 0 {
			ship(d)
		}
	}
	tbl.Reset()
	return err
}
