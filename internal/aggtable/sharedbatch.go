// Batch entry points for the concurrent Shared table. The headline win
// over per-tuple UpdateRaw is lock amortization: the batch is first
// partitioned by stripe (one pass building per-stripe index chains in
// caller-owned scratch), then each stripe's lock is taken ONCE per
// batch segment and the whole segment folds under it — a batch of 4096
// tuples over 64 stripes pays ~64 lock acquisitions instead of 4096.
//
// The CAS global-bound refusal contract is preserved exactly: every
// insert still claims its slot through the same per-insert reserve()
// CAS on the shared counter before touching the stripe's arrays, so a
// new group is refused iff the table already holds `bound` groups at
// that instant, in any interleaving — only the lock traffic is
// amortized, never the reservation. (The unbounded path batches its
// used-counter add per segment; nothing reads `used` mid-segment with
// a stronger expectation than "exact at quiescence", same as scalar.)
//
// Scratch is caller-owned (one per worker goroutine), because unlike
// the sequential Table the Shared table is itself used concurrently
// and cannot hold per-call scratch.

package aggtable

import "parallelagg/internal/tuple"

// BatchScratch is the caller-owned working state of a Shared batch
// fold: the pre-hashed key column and the per-stripe partition of the
// batch, stored as index chains (heads[stripe] → next[i] → … → -1).
// A zero BatchScratch is ready to use; backing arrays grow on first
// use and are retained, so a pooled scratch reaches 0 allocs/op.
type BatchScratch struct {
	hashes []uint64
	heads  []int32 // chain head per stripe, -1 when the segment is empty
	next   []int32 // chain link per batch index, -1 terminates
	counts []int32 // segment length per stripe
}

// grow readies the scratch for n batch records over `stripes` stripes.
func (sc *BatchScratch) grow(n, stripes int) {
	if cap(sc.hashes) < n {
		sc.hashes = make([]uint64, n) //aggvet:allow noalloc -- scratch growth; amortized to the first batch, absent from the steady state the alloc pins measure
		sc.next = make([]int32, n)    //aggvet:allow noalloc -- scratch growth; amortized to the first batch, absent from the steady state the alloc pins measure
	}
	sc.hashes = sc.hashes[:n]
	sc.next = sc.next[:n]
	if cap(sc.heads) < stripes {
		sc.heads = make([]int32, stripes)  //aggvet:allow noalloc -- scratch growth; amortized to the first batch, absent from the steady state the alloc pins measure
		sc.counts = make([]int32, stripes) //aggvet:allow noalloc -- scratch growth; amortized to the first batch, absent from the steady state the alloc pins measure
	}
	sc.heads = sc.heads[:stripes]
	sc.counts = sc.counts[:stripes]
}

// partition pre-hashes keys and chains batch indexes by owning stripe.
// Chains list a segment's indexes in reverse batch order, which is
// immaterial: AggState folds are commutative and associative, and the
// refusal contract is per-instant, not per-order.
//
//aggvet:noalloc
func (s *Shared) partition(sc *BatchScratch, keys []tuple.Key) {
	sc.grow(len(keys), len(s.stripes))
	for i := range sc.heads {
		sc.heads[i] = -1
		sc.counts[i] = 0
	}
	for i, k := range keys {
		h := k.Hash()
		sc.hashes[i] = h
		st := int((h >> 32) & s.mask)
		sc.next[i] = sc.heads[st]
		sc.heads[st] = int32(i)
		sc.counts[st]++
	}
}

// updateSegLocked folds one stripe's segment of the batch under the
// stripe lock, appending refused batch indexes.
//
//aggvet:holds st.mu
//aggvet:noalloc
func (s *Shared) updateSegLocked(st *stripe, b *tuple.Batch, sc *BatchScratch, head int32, refused []int) []int {
	inserted := int64(0)
	for i := head; i >= 0; i = sc.next[i] {
		k := b.Keys[i]
		h := sc.hashes[i]
		j, ok := st.t.findH(k, h)
		if ok {
			st.t.states[j].Update(b.Vals[i])
			continue
		}
		if s.bound > 0 {
			if !s.reserve() {
				refused = append(refused, int(i))
				continue
			}
		} else {
			inserted++
		}
		j = st.t.insertAtH(j, k, h)
		st.t.states[j] = tuple.NewState(b.Vals[i])
	}
	if inserted > 0 {
		s.used.Add(inserted)
	}
	return refused
}

// mergeSegLocked is updateSegLocked for a partial-aggregate segment.
//
//aggvet:holds st.mu
//aggvet:noalloc
func (s *Shared) mergeSegLocked(st *stripe, pb *tuple.PartialBatch, sc *BatchScratch, head int32, refused []int) []int {
	inserted := int64(0)
	for i := head; i >= 0; i = sc.next[i] {
		k := pb.Keys[i]
		h := sc.hashes[i]
		j, ok := st.t.findH(k, h)
		if ok {
			st.t.states[j].Merge(pb.StateAt(int(i)))
			continue
		}
		if s.bound > 0 {
			if !s.reserve() {
				refused = append(refused, int(i))
				continue
			}
		} else {
			inserted++
		}
		j = st.t.insertAtH(j, k, h)
		st.t.states[j] = pb.StateAt(int(i))
	}
	if inserted > 0 {
		s.used.Add(inserted)
	}
	return refused
}

// UpdateBatch folds every tuple of b into the table, taking each
// stripe's lock once per batch segment. Refused batch indexes (group
// absent and table at bound) are appended to refused, which is
// returned; their order is unspecified — callers treat the list as a
// set. sc must not be shared between concurrent callers.
//
//aggvet:noalloc
func (s *Shared) UpdateBatch(sc *BatchScratch, b *tuple.Batch, refused []int) []int {
	s.partition(sc, b.Keys)
	for si := range sc.heads {
		head := sc.heads[si]
		if head < 0 {
			continue
		}
		st := &s.stripes[si].stripe
		st.mu.Lock()
		refused = s.updateSegLocked(st, b, sc, head, refused)
		st.mu.Unlock()
	}
	return refused
}

// UpdateBatchContended is UpdateBatch plus the contention probe the
// adaptive Shared algorithm samples: contended counts the tuples whose
// stripe lock was held by another goroutine when their segment's
// acquisition arrived (the fold still completes, by blocking).
//
//aggvet:noalloc
func (s *Shared) UpdateBatchContended(sc *BatchScratch, b *tuple.Batch, refused []int) ([]int, int) {
	s.partition(sc, b.Keys)
	contended := 0
	for si := range sc.heads {
		head := sc.heads[si]
		if head < 0 {
			continue
		}
		st := &s.stripes[si].stripe
		if !st.mu.TryLock() {
			contended += int(sc.counts[si])
			st.mu.Lock()
		}
		refused = s.updateSegLocked(st, b, sc, head, refused)
		st.mu.Unlock()
	}
	return refused, contended
}

// MergeBatch folds every partial of pb into the table, with the same
// per-segment locking and refusal contract as UpdateBatch.
//
//aggvet:noalloc
func (s *Shared) MergeBatch(sc *BatchScratch, pb *tuple.PartialBatch, refused []int) []int {
	s.partition(sc, pb.Keys)
	for si := range sc.heads {
		head := sc.heads[si]
		if head < 0 {
			continue
		}
		st := &s.stripes[si].stripe
		st.mu.Lock()
		refused = s.mergeSegLocked(st, pb, sc, head, refused)
		st.mu.Unlock()
	}
	return refused
}
