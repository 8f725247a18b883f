package core

import (
	"fmt"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/cluster"
	"parallelagg/internal/des"
	"parallelagg/internal/disk"
	"parallelagg/internal/network"
	"parallelagg/internal/tuple"
)

// shipper blocks outgoing tuples into message pages per destination, the
// way the paper's implementation blocked PVM messages into 2 KB pages.
// One message is sent per full page; Flush sends the remainders.
type shipper struct {
	c               *cluster.Cluster
	n               *cluster.Node
	raw             [][]tuple.Tuple
	part            [][]tuple.Partial
	rawCap, partCap int
}

func newShipper(c *cluster.Cluster, n *cluster.Node) *shipper {
	ndst := c.Prm.N + 1 // node inboxes plus the coordinator
	return &shipper{
		c:       c,
		n:       n,
		raw:     make([][]tuple.Tuple, ndst),
		part:    make([][]tuple.Partial, ndst),
		rawCap:  c.Prm.MsgPageBytes / tuple.RawSize,
		partCap: c.Prm.MsgPageBytes / tuple.PartialSize,
	}
}

// Raw queues one raw tuple for dst, transmitting a page when full.
func (s *shipper) Raw(p *des.Proc, dst int, t tuple.Tuple) {
	s.raw[dst] = append(s.raw[dst], t)
	if len(s.raw[dst]) >= s.rawCap {
		s.sendRaw(p, dst)
	}
}

// Partial queues one partial aggregate for dst.
func (s *shipper) Partial(p *des.Proc, dst int, pt tuple.Partial) {
	s.part[dst] = append(s.part[dst], pt)
	if len(s.part[dst]) >= s.partCap {
		s.sendPart(p, dst)
	}
}

func (s *shipper) sendRaw(p *des.Proc, dst int) {
	if len(s.raw[dst]) == 0 {
		return
	}
	batch := s.raw[dst]
	s.raw[dst] = nil
	s.n.Metrics.SentRaw += int64(len(batch))
	s.c.Net.Send(p, s.n.CPU, &network.Message{Src: s.n.ID, Dst: dst, Raw: batch})
}

func (s *shipper) sendPart(p *des.Proc, dst int) {
	if len(s.part[dst]) == 0 {
		return
	}
	batch := s.part[dst]
	s.part[dst] = nil
	s.n.Metrics.SentPartials += int64(len(batch))
	s.c.Net.Send(p, s.n.CPU, &network.Message{Src: s.n.ID, Dst: dst, Partials: batch})
}

// Flush transmits every partially-filled page.
func (s *shipper) Flush(p *des.Proc) {
	for dst := range s.raw {
		s.sendRaw(p, dst)
		s.sendPart(p, dst)
	}
}

// BroadcastEOS tells every node (not the coordinator) that this node will
// send no more data. Buffers must have been flushed first.
func (s *shipper) BroadcastEOS(p *des.Proc) {
	for dst := 0; dst < s.c.Prm.N; dst++ {
		s.c.Net.Send(p, s.n.CPU, &network.Message{Src: s.n.ID, Dst: dst, EOS: true})
	}
}

// BroadcastEndOfPhase sends the ARep end-of-phase signal to every other
// node.
func (s *shipper) BroadcastEndOfPhase(p *des.Proc) {
	for dst := 0; dst < s.c.Prm.N; dst++ {
		if dst == s.n.ID {
			continue
		}
		s.c.Net.Send(p, s.n.CPU, &network.Message{Src: s.n.ID, Dst: dst, EndOfPhase: true})
	}
}

// eosMsg builds an end-of-stream control message.
func eosMsg(src, dst int) *network.Message {
	return &network.Message{Src: src, Dst: dst, EOS: true}
}

// groupAgg is a memory-bounded aggregation that never refuses a record: it
// spills what does not fit and folds everything in Finalize. The hashing
// aggregator (2P) and the sorting sorter (Sort-2P) implement it.
type groupAgg interface {
	// instr is the CPU cost of one first-pass record, which callers charge
	// per page or message; AddRaw and AddPartial charge only spill I/O.
	instr() float64
	AddRaw(p *des.Proc, t tuple.Tuple)
	AddPartial(p *des.Proc, pt tuple.Partial)
	Finalize(p *des.Proc) []tuple.Partial
}

// aggregator is a capacity-bounded hash aggregation with recursive overflow
// partitioning (the uniprocessor algorithm of Section 2): records that
// cannot enter the in-memory table are hash-partitioned into spill files on
// the node's disk and re-aggregated bucket by bucket afterwards.
//
// CPU cost per first-pass record is configurable (local aggregation charges
// t_r+t_h+t_a, merge phases charge t_r+t_a); reprocessing spilled records
// charges t_r+t_a. I/O is charged by the Spill files themselves.
type aggregator struct {
	c   *cluster.Cluster
	n   *cluster.Node
	tab *aggtable.Table

	firstPassInstr float64 // charged per record on the first pass
	expected       int64   // anticipated total records (bucket-count sizing)

	depth  int
	seen   int64
	spills []*disk.Spill
}

func newAggregator(c *cluster.Cluster, n *cluster.Node, firstPassInstr float64, expected int64) *aggregator {
	return &aggregator{
		c:              c,
		n:              n,
		tab:            aggtable.New(c.Prm.HashEntries),
		firstPassInstr: firstPassInstr,
		expected:       expected,
	}
}

// chooseBuckets sizes the overflow fan-out when the table first fills:
// estimate total groups by scaling the M groups seen so far to the expected
// record count, then split so each bucket's groups fit in memory.
func (a *aggregator) chooseBuckets() int {
	m := int64(a.tab.Cap())
	exp := a.expected
	if exp < a.seen {
		exp = a.seen
	}
	est := m
	if a.seen > 0 {
		est = m * exp / a.seen
	}
	nb := int((est+m-1)/m) + 1
	if nb < 2 {
		nb = 2
	}
	if nb > maxBuckets {
		nb = maxBuckets
	}
	return nb
}

// maxBuckets caps the fan-out of overflow partitioning.
const maxBuckets = 64

func (a *aggregator) spillFor(k tuple.Key) *disk.Spill {
	if a.spills == nil {
		nb := a.chooseBuckets()
		a.spills = make([]*disk.Spill, nb)
		for i := range a.spills {
			a.spills[i] = a.n.Dsk.NewSpill()
		}
	}
	return a.spills[k.BucketAt(len(a.spills), a.depth)]
}

// AddRaw folds one raw tuple, spilling it if its group is absent and the
// table is full. The per-record CPU cost is NOT charged here — callers
// batch CPU charges per page/message (see chargeBatch).
func (a *aggregator) AddRaw(p *des.Proc, t tuple.Tuple) {
	a.seen++
	if !a.tab.UpdateRaw(t) {
		a.spillFor(t.Key).AppendRaw(p, t)
		a.n.Metrics.Spilled++
	}
}

// AddPartial folds one partial aggregate, spilling on overflow.
func (a *aggregator) AddPartial(p *des.Proc, pt tuple.Partial) {
	a.seen++
	if !a.tab.MergePartial(pt) {
		a.spillFor(pt.Key).AppendPartial(p, pt)
		a.n.Metrics.Spilled++
	}
}

func (a *aggregator) instr() float64 { return a.firstPassInstr }

// chargeBatch charges the first-pass CPU cost for n records in one go.
func (a *aggregator) chargeBatch(p *des.Proc, n int) {
	a.n.Work(p, a.firstPassInstr*float64(n))
}

// reprocessInstr is the CPU cost of re-aggregating one spilled record
// (reading and computing the cumulative value: t_r + t_a).
func (a *aggregator) reprocessInstr() float64 {
	return a.c.Prm.TRead + a.c.Prm.TAgg
}

const maxOverflowDepth = 64

// Finalize drains the in-memory table and recursively processes every
// overflow bucket, returning all result groups of this aggregation.
func (a *aggregator) Finalize(p *des.Proc) []tuple.Partial {
	out := a.tab.Drain()
	if a.spills == nil {
		return out
	}
	if a.depth >= maxOverflowDepth {
		panic(fmt.Sprintf("core: overflow recursion beyond depth %d on node %d", maxOverflowDepth, a.n.ID))
	}
	spills := a.spills
	a.spills = nil
	for _, sp := range spills {
		if sp.Len() == 0 {
			continue
		}
		sp.Flush(p)
		recs := sp.ReadAll(p)
		pass := a.c.Trace.Begin(a.n.ID, "spill")
		sub := newAggregator(a.c, a.n, a.reprocessInstr(), int64(len(recs)))
		sub.depth = a.depth + 1
		sub.chargeBatch(p, len(recs))
		for _, r := range recs {
			if r.IsPartial {
				sub.AddPartial(p, r.Partial)
			} else {
				sub.AddRaw(p, r.Raw)
			}
		}
		out = append(out, sub.Finalize(p)...)
		pass.End(fmt.Sprintf("reprocessing %d spilled records (depth %d)", len(recs), a.depth))
	}
	return out
}

// emitResults charges the result-generation CPU and store I/O for the
// final groups a node (or the coordinator) produced, and registers them in
// the cluster result.
func emitResults(c *cluster.Cluster, p *des.Proc, n *cluster.Node, out []tuple.Partial) {
	n.Work(p, c.Prm.TWrite*float64(len(out)))
	n.Dsk.StoreResult(p, int64(len(out)))
	n.Metrics.GroupsOut += int64(len(out))
	if err := c.Emit(n.ID, out); err != nil {
		panic(err)
	}
}
