// The scan side: one loop for every algorithm. A worker cuts its partition
// into cfg.Batch-sized chunks and hands each chunk to its current mode with
// ONE call — local mode and the shared mode's front fold the rows straight
// from the partition with aggtable's fused kernel (Table.UpdateRows: hash,
// probe and update per tuple, no staging copy and no hash column), shared
// mode batches what the front misses into the striped table one lock per
// stripe segment, route mode appends into columnar per-destination builders
// that travel the exchange as colRawBatch/colPartBatch messages.
//
// The fallback flag and the contention window are looked at between chunks,
// so those switches lag their cause by at most one chunk; a full table
// switches an adaptive worker at the first tuple it refuses. None of it
// changes the result: every tuple lands in exactly one table, every table is
// flushed to the merge of its groups, and AggState folds are commutative and
// associative, so the final groups are the sequential fold's whatever the
// timing and whatever order a flush walks its table in (the differential
// suites in batch_test.go, merge_test.go and reserve_test.go hold the
// engine to that).
//
// Only AdaptiveRepartitioning's observation phase is per tuple: its
// contract ("distinct groups among the first InitSeg tuples") is
// positional, the phase is bounded by InitSeg, and it routes — there is
// nothing to fold until the verdict is in.

package live

import (
	"fmt"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/sample"
	"parallelagg/internal/tuple"
)

// scanSide aggregates or routes this worker's partition, reporting whether
// it switched strategy. It is the owning loop of the worker's outbound
// batch state (outRaw/outPart).
//
//aggvet:loop scan
func (wk *worker) scanSide(part []tuple.Tuple) (switchedOut bool, err error) {
	wk.outRaw = make([]*colRawBatch, wk.cfg.Workers)
	wk.outPart = make([]*colPartBatch, wk.cfg.Workers)
	wk.reserve = make([]int, wk.cfg.Workers)
	local := aggtable.New(wk.cfg.TableEntries)
	mode := modeLocal
	switch wk.alg {
	case Repartitioning, AdaptiveRepartitioning:
		mode = modeRoute
	case Shared, AdaptiveShared:
		mode = modeShared
		// Sized up front, not by append-doubling: one query is all they live for.
		if n, _ := wk.cfg.sharedBudget(); n > 0 {
			wk.front = aggtable.NewSized(n, n)
		}
		wk.miss = *tuple.NewBatch(wk.cfg.Batch)
	}
	switched := false
	var spill spillStore // plain 2P's overflow buffer (memory or real disk)
	defer func() {
		if spill != nil {
			spill.close()
		}
	}()

	// ARep observation state (per tuple; see the file comment).
	observing := wk.alg == AdaptiveRepartitioning
	obsSeen := 0
	obsGroups := make(map[tuple.Key]struct{})
	threshold := max(1, int(wk.cfg.SwitchRatio*float64(wk.cfg.InitSeg)))

	// foldLocalOne is the cold leftover path: the tuples a chunk fold
	// refused re-enter here one by one, where the full table's consequence
	// applies — flush and switch to routing for the adaptive algorithms
	// (the A-2P switch), the spill store for plain 2P. The re-probe is
	// cheap, and after a switch the rest of the refusals just route.
	foldLocalOne := func(t tuple.Tuple) error {
		if mode != modeLocal {
			wk.route(t)
			return nil
		}
		if local.UpdateRaw(t) {
			return nil
		}
		switch wk.alg {
		case AdaptiveTwoPhase, AdaptiveRepartitioning, AdaptiveShared:
			wk.flushTable(local, true)
			mode = modeRoute
			switched = true
			wk.route(t)
		default:
			wk.m.Spilled++
			return wk.spillTo(&spill, t)
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
						mode, switched, observing = modeLocal, true, false
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
							wk.fallback.Store(true)
							mode, switched, observing = modeLocal, true, false
							break observe
						}
					}
					wk.route(t)
				}
				seg = seg[i:]
				continue
			}
			if mode == modeRoute {
				for _, t := range seg {
					wk.route(t)
				}
				break
			}
			// Near its bound an adaptive worker folds at most the table's room per
			// call: it switches at the first refused tuple, its profile unblurred by
			// a chunk's further repeats (the projection reads those as fewer groups).
			n := len(seg)
			if wk.alg != TwoPhase && wk.cfg.TableEntries > 0 {
				n = min(n, max(wk.cfg.TableEntries-local.Len(), 1))
			}
			wk.refused = local.UpdateRows(seg[:n], wk.refused[:0])
			for _, ix := range wk.refused {
				if err = foldLocalOne(seg[ix]); err != nil {
					return switched, err
				}
			}
			seg = seg[n:]
		}
	}

	// Flush the local table, then process the spill in bounded passes, like the
	// paper's overflow-bucket loop, each into a table of its own: the closure
	// escapes into the store, and must not drag local's scan state with it.
	if mode == modeShared {
		wk.leaveShared()
	}
	if wk.shared != nil {
		wk.noteOcc(wk.shared.OccupancyPermille())
	}
	wk.flushTable(local, false)
	for spill != nil && spill.len() > 0 {
		var next spillStore
		tab := aggtable.New(wk.cfg.TableEntries)
		err = spill.drain(func(t tuple.Tuple) error {
			if tab.UpdateRaw(t) {
				return nil
			}
			return wk.spillTo(&next, t)
		})
		spill.close()
		spill = next
		if err != nil {
			return switched, err // the deferred close takes the next store
		}
		wk.flushTable(tab, false)
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
	wk.refused = wk.front.UpdateRows(seg, wk.refused[:0])
	wk.m.Absorbed += int64(len(seg) - len(wk.refused))
	for _, ix := range wk.refused {
		if wk.miss.Len() == wk.cfg.Batch {
			wk.flushMiss()
		}
		wk.miss.Append(seg[ix].Key, seg[ix].Val)
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
	for _, p := range wk.left {
		wk.emitPartial(p)
	}
	wk.left = wk.left[:0]
}

// spillTo adds t to the store *s, creating the store on first use.
func (wk *worker) spillTo(s *spillStore, t tuple.Tuple) (err error) {
	if *s == nil {
		if *s, err = newSpillStore(wk.cfg); err != nil {
			return err
		}
	}
	return (*s).add(t)
}

// route queues one raw tuple for the worker owning its group, into the
// columnar per-destination builder.
func (wk *worker) route(t tuple.Tuple) {
	wk.m.Routed++
	d := t.Key.Dest(wk.cfg.Workers)
	b := wk.outRaw[d]
	if b == nil {
		b = wk.pools.getColRaw()
		wk.outRaw[d] = b
	}
	b.b.Append(t.Key, t.Val)
	if b.b.Len() >= wk.cfg.Batch {
		wk.inboxes[d] <- message{src: wk.id, raw: b}
		wk.outRaw[d] = nil
	}
}

// flushTable ships a scan-side table's groups to their owners as partials and
// empties it. A first walk counts each owner's share, sent as its reservation
// target (at a switch, project raises it to the projection), and the count
// profile; a second writes the groups in slot order into the builders. No copy,
// no sort: the merge side keeps no order, and the target makes the pour safe.
func (wk *worker) flushTable(tab *aggtable.Table, project bool) {
	wk.noteOcc(tab.OccupancyPermille())
	clear(wk.reserve)
	var prof sample.Profile
	tab.Each(func(k tuple.Key, s tuple.AggState) {
		wk.reserve[k.Dest(wk.cfg.Workers)]++
		prof.Add(s.Count)
	})
	if project {
		est, ok := sample.ProjectOwnerGroups(tab.Len(), prof.F1, prof.F2, wk.rows, wk.cfg.Workers)
		wk.estNote = fmt.Sprintf(", est %d/owner (f1 %d, f2 %d)", est, prof.F1, prof.F2)
		if !ok {
			wk.estNote = fmt.Sprintf(", est declined (f1 %d, f2 %d)", prof.F1, prof.F2)
		}
		for d := range wk.reserve {
			wk.reserve[d] = max(wk.reserve[d], est)
		}
	}
	for d, n := range wk.reserve {
		if n > 0 {
			wk.inboxes[d] <- message{src: wk.id, reserve: n}
		}
	}
	tab.Each(func(k tuple.Key, s tuple.AggState) { wk.emitPartial(tuple.Partial{Key: k, State: s}) })
	tab.Reset()
}

// emitPartial queues one partial for the worker owning its group, into the
// columnar per-destination builder.
func (wk *worker) emitPartial(pt tuple.Partial) {
	wk.m.PartialsSent++
	d := pt.Key.Dest(wk.cfg.Workers)
	b := wk.outPart[d]
	if b == nil {
		b = wk.pools.getColPart()
		wk.outPart[d] = b
	}
	b.pb.Append(pt)
	if b.pb.Len() >= wk.cfg.Batch {
		wk.inboxes[d] <- message{src: wk.id, part: b}
		wk.outPart[d] = nil
	}
}
