package exec

import (
	"parallelagg/internal/aggtable"
	"parallelagg/internal/des"
	"parallelagg/internal/disk"
	"parallelagg/internal/tuple"
)

// spillSet is HashAgg's overflow machinery: records rejected by the full
// in-memory table are hash-partitioned into spill files and re-aggregated
// bucket by bucket, recursing with a fresh hash family per depth.
type spillSet struct {
	h      *HashAgg
	spills []*disk.Spill
	depth  int
}

// ensure lazily creates the spill set, sizing the bucket fan-out from the
// groups-per-record rate observed so far (the same rule as internal/core).
func (s *spillSet) ensure(h *HashAgg, tab *aggtable.Table, seen, expected int64, maxBuckets int) *spillSet {
	if s != nil {
		return s
	}
	m := int64(tab.Cap())
	if expected < seen {
		expected = seen
	}
	est := m
	if seen > 0 {
		est = m * expected / seen
	}
	nb := int((est+m-1)/m) + 1
	if nb < 2 {
		nb = 2
	}
	if nb > maxBuckets {
		nb = maxBuckets
	}
	out := &spillSet{h: h, spills: make([]*disk.Spill, nb)}
	for i := range out.spills {
		out.spills[i] = h.Node.Dsk.NewSpill()
	}
	return out
}

func (s *spillSet) addRaw(p *des.Proc, t tuple.Tuple) {
	s.spills[t.Key.BucketAt(len(s.spills), s.depth)].AppendRaw(p, t)
	s.h.Node.Metrics.Spilled++
}

func (s *spillSet) addPartial(p *des.Proc, pt tuple.Partial) {
	s.spills[pt.Key.BucketAt(len(s.spills), s.depth)].AppendPartial(p, pt)
	s.h.Node.Metrics.Spilled++
}

const maxSpillDepth = 64

// finalize re-aggregates every bucket, emitting each bucket's groups, and
// recurses if a bucket itself overflows.
func (s *spillSet) finalize(p *des.Proc, depth int, emit func([]tuple.Partial)) {
	if depth >= maxSpillDepth {
		panic("exec: overflow recursion too deep")
	}
	prm := s.h.C.Prm
	for _, sp := range s.spills {
		if sp.Len() == 0 {
			continue
		}
		sp.Flush(p)
		recs := sp.ReadAll(p)
		s.h.Node.Work(p, (prm.TRead+prm.TAgg)*float64(len(recs)))
		tab := aggtable.New(prm.HashEntries)
		var sub *spillSet
		for _, r := range recs {
			if r.IsPartial {
				if !tab.MergePartial(r.Partial) {
					sub = s.subSet(sub, tab, len(recs), depth)
					sub.addPartial(p, r.Partial)
				}
			} else if !tab.UpdateRaw(r.Raw) {
				sub = s.subSet(sub, tab, len(recs), depth)
				sub.addRaw(p, r.Raw)
			}
		}
		emit(tab.Drain())
		if sub != nil {
			sub.finalize(p, depth+1, emit)
		}
	}
}

func (s *spillSet) subSet(sub *spillSet, tab *aggtable.Table, recs, depth int) *spillSet {
	if sub != nil {
		return sub
	}
	sub = (*spillSet)(nil).ensure(s.h, tab, int64(recs), int64(recs), len(s.spills)+2)
	sub.depth = depth + 1
	return sub
}
