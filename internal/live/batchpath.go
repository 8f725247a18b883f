// The columnar batch data plane: the default scan path since the
// struct-of-arrays tuple.Batch landed. The scan side cuts its partition
// into cfg.Batch-sized chunks and folds each chunk with ONE call into
// the batch entry points of internal/aggtable — pre-hashed probes on the
// local table and the shared mode's front, stripe-segmented locking on
// the shared table behind it — and routes into columnar per-destination
// builders that travel the exchange as colRawBatch/colPartBatch messages.
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
		// Sized up front, not by append-doubling: one query is all they live for.
		if n, _ := wk.cfg.sharedBudget(); n > 0 {
			wk.front = aggtable.NewSized(n, n)
			wk.front.ReserveBatch(wk.cfg.Batch)
		}
		wk.scanB, wk.miss = *tuple.NewBatch(wk.cfg.Batch), *tuple.NewBatch(wk.cfg.Batch)
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
				if wk.sharedChunk(seg) {
					wk.leaveShared() // the paper's switch rule a third time: shared mode goes on, frontless
				}
				if wk.alg == AdaptiveShared && wk.fallback.Load() { // by whoever's hand: A-2P's strategy from here
					wk.leaveShared()
					mode, switched = modeLocal, true
				}
				break
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
	if mode == modeShared {
		wk.leaveShared()
	}
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

// sharedChunk folds one chunk the way the paper's local phase would, with
// the shared table as the overflow: into the worker's front first, which
// keeps the first keys it met and evicts nothing, so a hot key costs one
// private probe; the tuples it refuses (new key, front full) are compacted
// into the miss batch, which goes to the shared table cfg.Batch at a time —
// a chunk's few misses alone would pay a stripe lock every tuple or two. It
// reports a cold front, to be given up: one that missed over a third of the chunk
// (the hot keys came too late for it, or there are none) costs more than it saves.
//
//aggvet:noalloc
func (wk *worker) sharedChunk(seg []tuple.Tuple) (cold bool) {
	if wk.front == nil { // no room for one in the budget, or given up: the chunk is its own miss batch
		wk.miss.AppendRows(seg)
		wk.flushMiss()
		return false
	}
	wk.scanB.Reset()
	wk.scanB.AppendRows(seg)
	wk.refused = wk.front.UpdateBatch(&wk.scanB, wk.refused[:0])
	wk.m.Absorbed += int64(len(seg) - len(wk.refused))
	for _, ix := range wk.refused {
		if wk.miss.Len() == wk.cfg.Batch {
			wk.flushMiss()
		}
		wk.miss.Append(wk.scanB.Keys[ix], wk.scanB.Vals[ix])
	}
	return 3*len(wk.refused) > len(seg)
}

// flushMiss folds the miss batch into the shared table, one lock per
// stripe, and bounces what the table refuses at its global bound.
//
//aggvet:noalloc
func (wk *worker) flushMiss() {
	var contended int
	wk.bounced, contended = wk.shared.UpdateBatchContended(&wk.sc, &wk.miss, wk.bounced[:0])
	if wk.alg == AdaptiveShared {
		wk.sharedSeen += wk.miss.Len() - len(wk.bounced)
		wk.sharedContended += contended
		if wk.sharedSeen >= wk.cfg.InitSeg {
			if wk.sharedContentionHigh() {
				wk.fallback.Store(true)
			}
			wk.sharedSeen, wk.sharedContended = 0, 0
		}
	}
	for _, ix := range wk.bounced {
		wk.bounce(tuple.Partial{Key: wk.miss.Keys[ix], State: tuple.NewState(wk.miss.Vals[ix])})
	}
	wk.miss.Reset()
}

// bounce takes an entry refused at the shared table's global bound: plain Shared's
// goes to its overflow table, AdaptiveShared's raises the flag and waits in left.
//
//aggvet:noalloc
func (wk *worker) bounce(p tuple.Partial) {
	if wk.alg == Shared {
		wk.m.Spilled += p.State.Count
		wk.sharedOv.MergePartial(p)
		return
	}
	wk.fallback.Store(true)
	wk.left = append(wk.left, p)
}

// leaveShared empties the shared-mode buffers — at the end of the partition, on
// AdaptiveShared's fallback, or to go on without a cold front: the misses into the
// shared table, the front after them through one pooled batch, left to the exchange.
func (wk *worker) leaveShared() {
	wk.flushMiss()
	if wk.front != nil {
		cp := wk.pools.getColPart()
		wk.front.Each(func(k tuple.Key, s tuple.AggState) { cp.pb.Append(tuple.Partial{Key: k, State: s}) })
		wk.front = nil
		wk.bounced = wk.shared.MergeBatch(&wk.sc, &cp.pb, wk.bounced[:0])
		for _, ix := range wk.bounced {
			wk.bounce(cp.pb.At(ix))
		}
		wk.pools.colPart.Put(cp)
	}
	wk.flushPartialsB(wk.left)
	wk.left = wk.left[:0]
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
