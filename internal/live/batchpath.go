// The columnar batch data plane: the default scan path since the
// struct-of-arrays tuple.Batch landed. The scan side cuts its partition
// into cfg.Batch-sized chunks and folds each chunk with ONE call into
// the batch entry points of internal/aggtable — pre-hashed probes on
// the local table, stripe-segmented locking on the shared one — and
// routes into columnar per-destination builders that travel the
// exchange as colRawBatch/colPartBatch messages.
//
// Semantics are the scalar path's, chunk-shaped. The adaptive triggers
// fire at chunk boundaries instead of per tuple (a switch decision can
// lag by at most one chunk), and a refusing chunk folds its absorbable
// tuples before the switch instead of none of them, but both paths
// compute the same exact fold of the input multiset: every tuple lands
// in exactly one table, every table drains to the merge of its groups,
// and AggState folds are commutative and associative — so final groups
// are byte-identical (the differential suite in batch_test.go holds
// the two paths to that).
//
// Only AdaptiveRepartitioning's observation phase stays per-tuple: its
// contract ("distinct groups among the first InitSeg tuples") is
// positional, the phase is bounded by InitSeg, and it routes — there
// is nothing to batch-fold until the verdict is in.

package live

import (
	"parallelagg/internal/aggtable"
	"parallelagg/internal/tuple"
)

// scanSideBatch is the batch-path body of scanSide: same strategy
// state machine, chunked folds. Called from (and owned by) the scan
// loop goroutine.
func (wk *worker) scanSideBatch(part []tuple.Tuple) (switchedOut bool, err error) {
	bound := wk.cfg.TableEntries
	local := wk.newTable(bound)
	mode := modeLocal
	switch wk.alg {
	case Repartitioning, AdaptiveRepartitioning:
		mode = modeRoute
	case Shared, AdaptiveShared:
		mode = modeShared
	}
	switched := false
	var spill spillStore // plain 2P's overflow buffer (memory or real disk)
	defer func() {
		if spill != nil {
			spill.close()
		}
	}()

	// ARep observation state (per-tuple; see the package comment).
	observing := wk.alg == AdaptiveRepartitioning
	obsSeen := 0
	obsGroups := make(map[tuple.Key]struct{})
	threshold := int(wk.cfg.SwitchRatio * float64(wk.cfg.InitSeg))
	if threshold < 1 {
		threshold = 1
	}

	// foldLocalOne is the cold per-tuple leftover path: tuples a batch
	// fold refused re-enter here, where the scalar local-mode logic
	// (drain-and-switch for the adaptive algorithms, spill for 2P)
	// applies. The re-probe is cheap and keeps the refusal handling
	// textually identical to the scalar path's.
	foldLocalOne := func(t tuple.Tuple) error {
		if mode != modeLocal {
			wk.routeB(t)
			return nil
		}
		if local.UpdateRaw(t) {
			return nil
		}
		switch wk.alg {
		case AdaptiveTwoPhase, AdaptiveRepartitioning, AdaptiveShared:
			wk.noteOcc(local)
			wk.flushPartialsB(local.Drain())
			mode = modeRoute
			switched = true
			wk.routeB(t)
		default:
			wk.m.Spilled++
			if spill == nil {
				if spill, err = newSpillStore(wk.cfg); err != nil {
					return err
				}
			}
			return spill.add(t)
		}
		return nil
	}

	wk.m.Scanned = int64(len(part))
	for off := 0; off < len(part); {
		end := min(off+wk.cfg.Batch, len(part))
		seg := part[off:end]
		off = end
		for len(seg) > 0 {
			if mode == modeShared {
				var fell bool
				seg, fell = wk.sharedChunk(seg)
				if !fell {
					break
				}
				// Not absorbed: AdaptiveShared is falling back. From here
				// this worker runs the AdaptiveTwoPhase strategy, starting
				// with the leftover tuples.
				mode = modeLocal
				switched = true
				continue
			}
			if mode == modeRoute && wk.alg == AdaptiveRepartitioning {
				i := 0
			observe:
				for ; i < len(seg); i++ {
					t := seg[i]
					if wk.fallback.Load() {
						// Another worker (or this one) declared end-of-phase.
						mode = modeLocal
						switched = true
						observing = false
						break observe
					}
					if observing {
						obsSeen++
						if len(obsGroups) <= threshold {
							obsGroups[t.Key] = struct{}{}
						}
						if len(obsGroups) > threshold {
							observing = false // plenty of groups: keep routing
						} else if obsSeen >= wk.cfg.InitSeg {
							observing = false
							wk.fallback.Store(true)
							mode = modeLocal
							switched = true
							break observe
						}
					}
					wk.routeB(t)
				}
				seg = seg[i:]
				continue
			}
			switch mode {
			case modeLocal:
				wk.scanB.Reset()
				wk.scanB.AppendRows(seg)
				wk.refused = local.UpdateBatch(&wk.scanB, wk.refused[:0])
				for _, ix := range wk.refused {
					if err = foldLocalOne(wk.scanB.At(ix)); err != nil {
						return switched, err
					}
				}
			case modeRoute:
				for _, t := range seg {
					wk.routeB(t)
				}
			}
			seg = nil
		}
	}

	// Drain the local table, then process the spill in bounded passes,
	// exactly like the overflow-bucket loop of the paper.
	if wk.shared != nil {
		wk.noteOcc(wk.shared)
	}
	wk.noteOcc(local)
	wk.flushPartialsB(local.Drain())
	for spill != nil && spill.len() > 0 {
		var next spillStore
		tab := wk.newTable(bound)
		err = spill.drain(func(t tuple.Tuple) error {
			if tab.UpdateRaw(t) {
				return nil
			}
			if next == nil {
				var nerr error
				if next, nerr = newSpillStore(wk.cfg); nerr != nil {
					return nerr
				}
			}
			return next.add(t)
		})
		spill.close()
		spill = next
		if err != nil {
			if spill != nil {
				spill.close()
				spill = nil
			}
			return switched, err
		}
		wk.noteOcc(tab)
		wk.flushPartialsB(tab.Drain())
	}
	wk.flushAll()
	return switched, nil
}

// sharedChunk folds one chunk into the shared concurrent table with a
// single stripe-segmented batch call. It returns the tuples the shared
// phase did NOT absorb plus whether the worker must fall back to
// partitioned aggregation (AdaptiveShared only): either another worker
// raised the fallback flag (whole chunk returned), or folds were
// refused at the table's global bound (refused tuples returned). Plain
// Shared never falls back — refused tuples go to the worker-private
// overflow table, as in the scalar path.
func (wk *worker) sharedChunk(seg []tuple.Tuple) ([]tuple.Tuple, bool) {
	if wk.alg == Shared {
		wk.scanB.Reset()
		wk.scanB.AppendRows(seg)
		wk.refused = wk.shared.UpdateBatch(&wk.sc, &wk.scanB, wk.refused[:0])
		if len(wk.refused) > 0 {
			wk.m.Spilled += int64(len(wk.refused))
			if wk.sharedOv == nil {
				wk.sharedOv = aggtable.New(0)
			}
			for _, ix := range wk.refused {
				wk.sharedOv.UpdateRaw(wk.scanB.At(ix))
			}
		}
		return nil, false
	}
	if wk.fallback.Load() {
		return seg, true
	}
	wk.scanB.Reset()
	wk.scanB.AppendRows(seg)
	var contended int
	wk.refused, contended = wk.shared.UpdateBatchContended(&wk.sc, &wk.scanB, wk.refused[:0])
	wk.sharedSeen += len(seg) - len(wk.refused)
	wk.sharedContended += contended
	if wk.sharedSeen >= wk.cfg.InitSeg {
		if wk.sharedContentionHigh() {
			wk.fallback.Store(true)
		}
		wk.sharedSeen, wk.sharedContended = 0, 0
	}
	if len(wk.refused) > 0 {
		// Bound pressure: declare end-of-phase for every worker and fold
		// the refused tuples through the fallback strategy.
		wk.fallback.Store(true)
		wk.left = wk.left[:0]
		for _, ix := range wk.refused {
			wk.left = append(wk.left, wk.scanB.At(ix))
		}
		return wk.left, true
	}
	return nil, false
}

// routeB queues one raw tuple for the worker owning its group, into the
// columnar per-destination builder.
func (wk *worker) routeB(t tuple.Tuple) {
	wk.m.Routed++
	d := t.Key.Dest(wk.cfg.Workers)
	b := wk.outRawC[d]
	if b == nil {
		b = wk.pools.getColRaw()
		wk.outRawC[d] = b
	}
	b.b.Append(t.Key, t.Val)
	if b.b.Len() >= wk.cfg.Batch {
		wk.inboxes[d] <- message{src: wk.id, craw: b}
		wk.outRawC[d] = nil
	}
}

// flushPartialsB partitions a drained table's partials to their merge
// workers as columnar partial batches.
func (wk *worker) flushPartialsB(parts []tuple.Partial) {
	wk.m.PartialsSent += int64(len(parts))
	for _, pt := range parts {
		d := pt.Key.Dest(wk.cfg.Workers)
		b := wk.outPartC[d]
		if b == nil {
			b = wk.pools.getColPart()
			wk.outPartC[d] = b
		}
		b.pb.Append(pt)
		if b.pb.Len() >= wk.cfg.Batch {
			wk.inboxes[d] <- message{src: wk.id, cpart: b}
			wk.outPartC[d] = nil
		}
	}
}
