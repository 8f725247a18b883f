// The scan side is internal/kernel's loop over this engine's channels: the
// worker is the kernel's Exchange, and its ships hand pooled buffers to the
// owners' inboxes without a copy. Shared and AdaptiveShared put a front of
// their own ahead of it: each chunk folds into the worker's private front
// table, and what the front misses is batched into the striped shared
// table one lock per stripe segment. Once AdaptiveShared's fallback flag is
// up (it is looked at between chunks), the worker empties its front and
// hands the rest of its partition to the kernel as AdaptiveTwoPhase. The
// differential suites in batch_test.go, merge_test.go and reserve_test.go
// hold every algorithm to the sequential fold, whatever the timing.

package live

import (
	"parallelagg/internal/aggtable"
	"parallelagg/internal/kernel"
	"parallelagg/internal/tuple"
)

// scanSide aggregates or routes this worker's partition, reporting whether
// it switched strategy.
//
//aggvet:loop scan
func (wk *worker) scanSide(part []tuple.Tuple) (switched bool) {
	alg := kernel.Algorithm(wk.alg)
	if wk.shared != nil {
		alg = kernel.AdaptiveTwoPhase // the strategy AdaptiveShared falls back to
	}
	k := &wk.k
	*k = kernel.Scan{Alg: alg, Bound: wk.cfg.TableEntries, Batch: wk.cfg.Batch,
		Dests: wk.cfg.Workers, Rows: wk.rows, Fallback: wk.fallback, Ex: wk}
	k.Begin()
	wk.m.Scanned = int64(len(part))
	if wk.shared != nil {
		part = wk.sharedScan(part)
		switched = part != nil
	}
	// The worker's ships never fail, so neither does the kernel.
	_ = k.Scan(part)
	_ = k.Finish()
	if wk.shared != nil {
		wk.noteOcc(wk.shared.OccupancyPermille())
	}
	wk.noteOcc(k.Occ)
	wk.m.Routed, wk.m.PartialsSent, wk.m.Spilled = k.Routed, k.Partials, wk.m.Spilled+k.Evicted
	return switched || k.FellBack || k.Switched
}

// sharedScan runs the shared mode over part a chunk at a time and returns
// what is left of it once AdaptiveShared falls back (nil when nothing is).
func (wk *worker) sharedScan(part []tuple.Tuple) []tuple.Tuple {
	// Sized up front, not by append-doubling: one query is all they live for.
	if n, _ := wk.cfg.sharedBudget(); n > 0 {
		wk.front = aggtable.NewSized(n, n)
	}
	wk.miss = *tuple.NewBatch(wk.cfg.Batch)
	for off := 0; off < len(part); {
		end := min(off+wk.cfg.Batch, len(part))
		if wk.sharedChunk(part[off:end]) {
			wk.leaveShared() // the paper's switch rule a third time: shared mode goes on, frontless
		}
		off = end
		if wk.alg == AdaptiveShared && wk.fallback.Load() { // by whoever's hand: A-2P's strategy from here
			wk.leaveShared()
			return part[off:]
		}
	}
	wk.leaveShared()
	return nil
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
		if wk.sharedSeen >= sharedWindow {
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
// shared table, the front after them through one batch, left to the exchange.
func (wk *worker) leaveShared() {
	wk.flushMiss()
	if wk.front != nil {
		pb := tuple.NewPartialBatch(wk.front.Len())
		wk.front.Each(func(k tuple.Key, s tuple.AggState) { pb.Append(tuple.Partial{Key: k, State: s}) })
		wk.front.Release()
		wk.front = nil
		wk.bounced = wk.shared.MergeBatch(&wk.sc, pb, wk.bounced[:0])
		for _, ix := range wk.bounced {
			wk.bounce(pb.At(ix))
		}
	}
	for _, p := range wk.left {
		_ = wk.k.Partial(p) // cannot fail: the worker's ships never do
	}
	wk.left = wk.left[:0]
}

// Raw, Partials, Reserve and EndPhase make the worker the kernel's
// Exchange: a ship hands the buffer to the owner's inbox (whose merge side
// pools it once folded), a reservation is a message of its own, and the
// shared Fallback flag is all the end of a phase needs. None fails.

func (wk *worker) Raw(d int, b []tuple.Tuple) ([]tuple.Tuple, error) {
	if len(b) == 0 {
		return wk.pools.raw.get(wk.cfg.Batch), nil
	}
	wk.inboxes[d] <- message{src: wk.id, raw: b}
	return nil, nil
}

func (wk *worker) Partials(d int, b []tuple.Partial) ([]tuple.Partial, error) {
	if len(b) == 0 {
		return wk.pools.part.get(wk.cfg.Batch), nil
	}
	wk.inboxes[d] <- message{src: wk.id, part: b}
	return nil, nil
}

func (wk *worker) Reserve(d, groups int) error {
	wk.inboxes[d] <- message{src: wk.id, reserve: groups}
	return nil
}

func (wk *worker) EndPhase() error { return nil }
