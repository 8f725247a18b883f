package dist

import (
	"sync/atomic"

	"parallelagg/internal/aggtable"
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

// flushPartials empties a scan-side table onto the wire. Its groups leave
// in key order (Drain), so a same-seed run ships byte-identical frames;
// each goes to the destination dest names, through that destination's
// reusable slice in bufs, in frames of at most batch records — the table
// may be unbounded, a frame is not. write ships one frame; the first
// error it returns ends the flush.
func flushPartials(tbl *aggtable.Table, m *metrics, bufs [][]tuple.Partial, batch int,
	dest func(tuple.Key) int, write func(d int, ps []tuple.Partial) error) error {
	m.occupancy(tbl.Len(), tbl.Cap())
	if tbl.Len() == 0 {
		return nil
	}
	ship := func(d int) error {
		err := write(d, bufs[d])
		bufs[d] = bufs[d][:0]
		return err
	}
	for _, pt := range tbl.Drain() {
		d := dest(pt.Key)
		bufs[d] = append(bufs[d], pt)
		if len(bufs[d]) >= batch {
			if err := ship(d); err != nil {
				return err
			}
		}
	}
	for d := range bufs {
		if len(bufs[d]) > 0 {
			if err := ship(d); err != nil {
				return err
			}
		}
	}
	return nil
}
