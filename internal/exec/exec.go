// Package exec is a Gamma-style operator framework on the simulated
// cluster — the architecture Section 2 of the paper assumes: "each
// relational operation is represented by operators; the data flows through
// the operators in a pipelined fashion". Operators are simulated processes
// connected by queues; an exchange pair (SplitSend/MergeRecv) moves batches
// across the interconnect.
//
// The package provides the operators needed for parallel aggregation plans
// — Scan, Filter, HashAgg, SortAgg (the sort-based alternative of Bitton et
// al. [BBDW83]), SplitSend, MergeRecv and Store — plus pre-assembled
// TwoPhase and Repartition plans. internal/core implements the adaptive
// algorithms as integrated state machines (they must share state across
// phases to switch mid-query); exec shows the same traditional plans as
// composable pieces and is the extension point for new operators.
package exec

import (
	"fmt"
	"strconv"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/cluster"
	"parallelagg/internal/des"
	"parallelagg/internal/disk"
	"parallelagg/internal/network"
	"parallelagg/internal/tuple"
)

// Batch is the unit of data flow between operators on the same node.
type Batch struct {
	Raw  []tuple.Tuple
	Part []tuple.Partial
	EOS  bool
}

// Port connects two operators on one node.
type Port struct{ q *des.Queue }

// NewPort creates an intra-node operator connection.
func NewPort(c *cluster.Cluster, name string) *Port {
	return &Port{q: c.Sim.NewQueue(name)}
}

// Send enqueues a batch.
func (p *Port) Send(b *Batch) { p.q.Put(b) }

// Recv dequeues the next batch, blocking the calling process.
func (p *Port) Recv(proc *des.Proc) *Batch {
	v, ok := p.q.Get(proc)
	if !ok {
		panic("exec: port closed unexpectedly")
	}
	return v.(*Batch)
}

// Operator is a simulated process bound to a node.
type Operator interface {
	// Name identifies the operator in deadlock reports.
	Name() string
	// Run executes the operator to completion.
	Run(p *des.Proc)
}

// Spawn launches an operator as a simulation process.
func Spawn(c *cluster.Cluster, op Operator) {
	c.Sim.Spawn(op.Name(), op.Run)
}

// batchSize is the number of tuples per intra-node batch (one disk page's
// worth at the default geometry).
const batchSize = 256

// Scan reads a relation partition and emits raw-tuple batches, charging
// scan I/O and the select (tuple-off-page) CPU cost. Rel defaults to the
// node's base-relation partition; set it to scan a second relation loaded
// on the same disk (e.g. the build side of a join).
type Scan struct {
	C    *cluster.Cluster
	Node *cluster.Node
	Rel  *disk.Relation // nil = the node's base partition
	Out  *Port
}

// Name implements Operator.
func (s *Scan) Name() string { return fmt.Sprintf("scan-%d", s.Node.ID) }

// Run implements Operator.
func (s *Scan) Run(p *des.Proc) {
	prm := s.C.Prm
	rel := s.Rel
	if rel == nil {
		rel = s.Node.Rel
	}
	for i := 0; i < rel.Pages(); i++ {
		ts := rel.ReadPageSeq(p, i)
		s.Node.Metrics.Scanned += int64(len(ts))
		s.Node.Work(p, float64(len(ts))*(prm.TRead+prm.TWrite))
		out := make([]tuple.Tuple, len(ts))
		copy(out, ts)
		s.Out.Send(&Batch{Raw: out})
	}
	s.Out.Send(&Batch{EOS: true})
}

// HashJoin is a Gamma-style in-memory hash join on the tuple key: the
// Build input is consumed into a hash table first, then each Probe tuple
// that finds a build match is emitted, transformed by Combine. It is the
// operator Section 2 of the paper puts below the aggregation ("the child
// operator is a select or a join"). Build-side overflow handling is out of
// scope: the build relation must fit in memory.
type HashJoin struct {
	C     *cluster.Cluster
	Node  *cluster.Node
	Build *Port
	Probe *Port
	Out   *Port
	// Combine merges a matching build/probe pair into the output tuple.
	// Nil keeps the probe tuple unchanged (a semijoin filter).
	Combine func(build, probe tuple.Tuple) tuple.Tuple
}

// Name implements Operator.
func (j *HashJoin) Name() string { return fmt.Sprintf("hashjoin-%d", j.Node.ID) }

// Run implements Operator.
func (j *HashJoin) Run(p *des.Proc) {
	prm := j.C.Prm
	combine := j.Combine
	if combine == nil {
		combine = func(_, probe tuple.Tuple) tuple.Tuple { return probe }
	}
	// Build phase: hash every build tuple.
	table := make(map[tuple.Key]tuple.Tuple)
	for {
		b := j.Build.Recv(p)
		if b.EOS {
			break
		}
		j.Node.Work(p, (prm.TRead+prm.THash)*float64(len(b.Raw)))
		for _, t := range b.Raw {
			table[t.Key] = t
		}
	}
	// Probe phase: look up and emit matches.
	out := make([]tuple.Tuple, 0, batchSize)
	for {
		b := j.Probe.Recv(p)
		if b.EOS {
			break
		}
		j.Node.Work(p, (prm.TRead+prm.THash)*float64(len(b.Raw)))
		for _, t := range b.Raw {
			if bt, ok := table[t.Key]; ok {
				out = append(out, combine(bt, t))
				if len(out) >= batchSize {
					j.Out.Send(&Batch{Raw: out})
					out = make([]tuple.Tuple, 0, batchSize)
				}
			}
		}
	}
	if len(out) > 0 {
		j.Out.Send(&Batch{Raw: out})
	}
	j.Out.Send(&Batch{EOS: true})
}

// Filter drops raw tuples failing a predicate, charging one tuple-read per
// input tuple — the WHERE clause below the aggregation.
type Filter struct {
	C    *cluster.Cluster
	Node *cluster.Node
	Pred func(tuple.Tuple) bool
	In   *Port
	Out  *Port
}

// Name implements Operator.
func (f *Filter) Name() string { return fmt.Sprintf("filter-%d", f.Node.ID) }

// Run implements Operator.
func (f *Filter) Run(p *des.Proc) {
	for {
		b := f.In.Recv(p)
		if b.EOS {
			f.Out.Send(b)
			return
		}
		f.Node.Work(p, f.C.Prm.TRead*float64(len(b.Raw)))
		kept := b.Raw[:0:0]
		for _, t := range b.Raw {
			if f.Pred(t) {
				kept = append(kept, t)
			}
		}
		if len(kept) > 0 {
			f.Out.Send(&Batch{Raw: kept})
		}
	}
}

// HashAgg aggregates its input stream in a bounded hash table with
// overflow spooling (the paper's uniprocessor algorithm) and emits the
// result as partial batches at end of stream. Raw inputs charge rawInstr,
// partials partInstr.
type HashAgg struct {
	C    *cluster.Cluster
	Node *cluster.Node
	In   *Port
	Out  *Port
	// Local selects the local-phase CPU costs (t_r+t_h+t_a per raw tuple)
	// instead of the merge-phase costs (t_r+t_a).
	Local bool
	// MaxBuckets caps the overflow fan-out (default 64).
	MaxBuckets int
}

// Name implements Operator.
func (h *HashAgg) Name() string {
	kind := "merge"
	if h.Local {
		kind = "local"
	}
	return fmt.Sprintf("hashagg-%s-%d", kind, h.Node.ID)
}

// Run implements Operator.
func (h *HashAgg) Run(p *des.Proc) {
	prm := h.C.Prm
	instr := prm.TRead + prm.TAgg
	if h.Local {
		instr = prm.TRead + prm.THash + prm.TAgg
	}
	mb := h.MaxBuckets
	if mb == 0 {
		mb = 64
	}
	tab := aggtable.New(prm.HashEntries)
	occ := h.C.Obs.GaugeVec("sim_hash_occupancy_permille",
		"high-water fill of the local hash table per 1000 entries", "node").
		With(strconv.Itoa(h.Node.ID))
	var spill *spillSet
	expected := int64(h.Node.Rel.Len())
	seen := int64(0)
	for {
		b := h.In.Recv(p)
		if b.EOS {
			break
		}
		h.Node.Work(p, instr*float64(len(b.Raw)+len(b.Part)))
		for _, t := range b.Raw {
			seen++
			if !tab.UpdateRaw(t) {
				spill = spill.ensure(h, tab, seen, expected, mb)
				spill.addRaw(p, t)
			}
		}
		for _, pt := range b.Part {
			seen++
			if !tab.MergePartial(pt) {
				spill = spill.ensure(h, tab, seen, expected, mb)
				spill.addPartial(p, pt)
			}
		}
		if tab.Cap() > 0 {
			occ.Max(int64(1000 * tab.Len() / tab.Cap()))
		}
	}
	emit := func(parts []tuple.Partial) {
		h.Node.Work(p, prm.TWrite*float64(len(parts)))
		for off := 0; off < len(parts); off += batchSize {
			end := off + batchSize
			if end > len(parts) {
				end = len(parts)
			}
			h.Out.Send(&Batch{Part: parts[off:end]})
		}
	}
	emit(tab.Drain())
	if spill != nil {
		spill.finalize(p, 0, emit)
	}
	h.Out.Send(&Batch{EOS: true})
}

// Store terminates a plan fragment: it charges the result-generation and
// store costs and registers the groups in the cluster result.
type Store struct {
	C    *cluster.Cluster
	Node *cluster.Node
	In   *Port
	// NoIO suppresses the result-store write (pipeline mode).
	NoIO bool
	// Done, if non-nil, is signalled with the node's group count.
	Done func(groups int64)
}

// Name implements Operator.
func (s *Store) Name() string { return fmt.Sprintf("store-%d", s.Node.ID) }

// Run implements Operator.
func (s *Store) Run(p *des.Proc) {
	var out []tuple.Partial
	for {
		b := s.In.Recv(p)
		if b.EOS {
			break
		}
		out = append(out, b.Part...)
	}
	s.Node.Work(p, s.C.Prm.TWrite*float64(len(out)))
	if !s.NoIO {
		s.Node.Dsk.StoreResult(p, int64(len(out)))
	}
	s.Node.Metrics.GroupsOut += int64(len(out))
	if err := s.C.Emit(s.Node.ID, out); err != nil {
		panic(err)
	}
	s.Node.Metrics.Finish = p.Now()
	if s.Done != nil {
		s.Done(int64(len(out)))
	}
}

// SplitSend hash-partitions its input across the cluster, charging the
// routing CPU (t_h + t_d per record) and the send costs. It emits one EOS
// message to every node when its input ends.
type SplitSend struct {
	C    *cluster.Cluster
	Node *cluster.Node
	In   *Port
}

// Name implements Operator.
func (s *SplitSend) Name() string { return fmt.Sprintf("split-%d", s.Node.ID) }

// Run implements Operator.
func (s *SplitSend) Run(p *des.Proc) {
	prm := s.C.Prm
	n := prm.N
	rawCap := prm.MsgPageBytes / tuple.RawSize
	partCap := prm.MsgPageBytes / tuple.PartialSize
	rawBuf := make([][]tuple.Tuple, n)
	partBuf := make([][]tuple.Partial, n)
	flushRaw := func(d int) {
		if len(rawBuf[d]) == 0 {
			return
		}
		s.Node.Metrics.SentRaw += int64(len(rawBuf[d]))
		s.C.Net.Send(p, s.Node.CPU, &network.Message{Src: s.Node.ID, Dst: d, Raw: rawBuf[d]})
		rawBuf[d] = nil
	}
	flushPart := func(d int) {
		if len(partBuf[d]) == 0 {
			return
		}
		s.Node.Metrics.SentPartials += int64(len(partBuf[d]))
		s.C.Net.Send(p, s.Node.CPU, &network.Message{Src: s.Node.ID, Dst: d, Partials: partBuf[d]})
		partBuf[d] = nil
	}
	for {
		b := s.In.Recv(p)
		if b.EOS {
			break
		}
		s.Node.Work(p, (prm.THash+prm.TDest)*float64(len(b.Raw)+len(b.Part)))
		for _, t := range b.Raw {
			d := t.Key.Dest(n)
			rawBuf[d] = append(rawBuf[d], t)
			if len(rawBuf[d]) >= rawCap {
				flushRaw(d)
			}
		}
		for _, pt := range b.Part {
			d := pt.Key.Dest(n)
			partBuf[d] = append(partBuf[d], pt)
			if len(partBuf[d]) >= partCap {
				flushPart(d)
			}
		}
	}
	for d := 0; d < n; d++ {
		flushRaw(d)
		flushPart(d)
		s.C.Net.Send(p, s.Node.CPU, &network.Message{Src: s.Node.ID, Dst: d, EOS: true})
	}
	s.C.Net.Done()
}

// MergeRecv is the receiving half of an exchange: it forwards everything
// arriving at this node's inbox to its output port until it has seen an
// EOS from every node.
type MergeRecv struct {
	C    *cluster.Cluster
	Node *cluster.Node
	Out  *Port
}

// Name implements Operator.
func (m *MergeRecv) Name() string { return fmt.Sprintf("mergerecv-%d", m.Node.ID) }

// Run implements Operator.
func (m *MergeRecv) Run(p *des.Proc) {
	eos := 0
	for eos < m.C.Prm.N {
		msg, ok := m.C.Net.Recv(p, m.Node.CPU, m.Node.ID)
		if !ok {
			break
		}
		if msg.EOS {
			eos++
		}
		if len(msg.Raw)+len(msg.Partials) > 0 {
			m.Node.Metrics.RecvRaw += int64(len(msg.Raw))
			m.Node.Metrics.RecvPartials += int64(len(msg.Partials))
			m.Out.Send(&Batch{Raw: msg.Raw, Part: msg.Partials})
		}
	}
	m.Out.Send(&Batch{EOS: true})
}
