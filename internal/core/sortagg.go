package core

import (
	"fmt"
	"math"
	"sort"

	"parallelagg/internal/cluster"
	"parallelagg/internal/des"
	"parallelagg/internal/disk"
	"parallelagg/internal/tuple"
)

// sortCompareInstr is the assumed CPU cost of one key comparison. Table 1
// has no comparison entry (the paper is hash-only); 100 instructions, the
// cost of a tuple write, is the assumption DESIGN.md §3 records.
const sortCompareInstr = 100

// sorter is the sort-based aggregation of Bitton et al. [BBDW83] behind
// Sort-2P: records collect into a run of M (HashEntries) entries, a full run
// is sorted and spooled to a spill file of its own, and Finalize merges all
// runs, folding equal keys. It charges t_r per input record, n·log₂n
// comparisons per sorted run, and log₂(k+1) comparisons plus t_a per record
// merged from k runs.
type sorter struct {
	c       *cluster.Cluster
	n       *cluster.Node
	run     []tuple.Partial
	spooled []*disk.Spill
}

func (s *sorter) instr() float64 { return s.c.Prm.TRead }

func (s *sorter) AddRaw(p *des.Proc, t tuple.Tuple) {
	s.AddPartial(p, tuple.Partial{Key: t.Key, State: tuple.NewState(t.Val)})
}

func (s *sorter) AddPartial(p *des.Proc, pt tuple.Partial) {
	s.run = append(s.run, pt)
	if len(s.run) < s.c.Prm.HashEntries {
		return
	}
	s.sortRun(p)
	sp := s.n.Dsk.NewSpill()
	for _, r := range s.run {
		sp.AppendPartial(p, r)
	}
	sp.Flush(p)
	s.n.Metrics.Spilled += int64(len(s.run))
	s.spooled = append(s.spooled, sp)
	s.run = s.run[:0]
}

// sortRun sorts the in-memory run by key, charging n·log₂n comparisons.
func (s *sorter) sortRun(p *des.Proc) {
	if n := len(s.run); n > 1 {
		s.n.Work(p, float64(n)*math.Log2(float64(n))*sortCompareInstr)
		sort.Slice(s.run, func(i, j int) bool { return s.run[i].Key < s.run[j].Key })
	}
}

// Finalize sorts the last run, reads the spooled ones back and merges them
// all. The charge is a k-way heap merge; sorting the concatenation gives
// the same key order, and a folded state does not depend on the order in
// which equal keys meet.
func (s *sorter) Finalize(p *des.Proc) []tuple.Partial {
	s.sortRun(p)
	k := len(s.spooled)
	if len(s.run) > 0 {
		k++
	}
	all := s.run
	for _, sp := range s.spooled {
		for _, r := range sp.ReadAll(p) {
			all = append(all, r.Partial)
		}
	}
	if len(all) == 0 {
		return nil
	}
	if k > 1 {
		s.c.Trace.Begin(s.n.ID, "spill").End(fmt.Sprintf("merging %d sorted runs (%d records)", k, len(all)))
	}
	s.n.Work(p, float64(len(all))*(math.Log2(float64(k)+1)*sortCompareInstr+s.c.Prm.TAgg))
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	out := all[:1]
	for _, pt := range all[1:] {
		if last := &out[len(out)-1]; last.Key == pt.Key {
			last.State.Merge(pt.State)
		} else {
			out = append(out, pt)
		}
	}
	return out
}
