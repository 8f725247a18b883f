package exec

import (
	"fmt"
	"strconv"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/cluster"
	"parallelagg/internal/des"
)

// AdaptiveAgg is the Adaptive Two Phase local phase as a composable
// operator: it aggregates its raw input into a bounded hash table and, the
// moment the table fills, flushes the accumulated partials downstream and
// passes every further tuple through raw. Feeding its output to a
// SplitSend gives exactly the A-2P plan:
//
//	Scan → AdaptiveAgg → SplitSend ⇒ MergeRecv → HashAgg → Store
//
// The merge side needs no changes — HashAgg already absorbs raw tuples and
// partials alike, which is the property Section 3.2 of the paper builds
// the algorithm on.
type AdaptiveAgg struct {
	C    *cluster.Cluster
	Node *cluster.Node
	In   *Port
	Out  *Port
}

// Name implements Operator.
func (a *AdaptiveAgg) Name() string { return fmt.Sprintf("adaptiveagg-%d", a.Node.ID) }

// Run implements Operator.
func (a *AdaptiveAgg) Run(p *des.Proc) {
	prm := a.C.Prm
	tab := aggtable.New(prm.HashEntries)
	switched := false

	flush := func() {
		parts := tab.Drain()
		a.Node.Work(p, prm.TWrite*float64(len(parts)))
		for off := 0; off < len(parts); off += batchSize {
			end := off + batchSize
			if end > len(parts) {
				end = len(parts)
			}
			a.Out.Send(&Batch{Part: parts[off:end]})
		}
	}

	for {
		b := a.In.Recv(p)
		if b.EOS {
			break
		}
		if switched {
			// Repartition mode: read and pass through; the downstream
			// SplitSend charges the hash/destination routing costs.
			a.Node.Work(p, prm.TRead*float64(len(b.Raw)))
			a.Out.Send(&Batch{Raw: b.Raw})
			continue
		}
		var instr float64
		var overflowFrom int = -1
		for i, t := range b.Raw {
			instr += prm.TRead + prm.THash + prm.TAgg
			if !tab.UpdateRaw(t) {
				overflowFrom = i
				break
			}
		}
		a.Node.Work(p, instr)
		if overflowFrom >= 0 {
			// The A-2P switch: flush partials, free the memory, and route
			// the rest of this batch (and all later ones) raw.
			switched = true
			if a.Node.Metrics.SwitchedAt < 0 {
				a.Node.Metrics.SwitchedAt = a.Node.Metrics.Scanned
			}
			a.C.Obs.CounterVec("sim_phase_switch_total",
				"adaptive strategy switches fired", "node", "to").
				With(strconv.Itoa(a.Node.ID), "repart").Inc()
			flush()
			rest := b.Raw[overflowFrom:]
			a.Node.Work(p, prm.TRead*float64(len(rest)))
			a.Out.Send(&Batch{Raw: rest})
		}
	}
	if !switched {
		flush()
	}
	a.Out.Send(&Batch{EOS: true})
}

// BuildAdaptiveTwoPhase assembles the Adaptive Two Phase operator plan on
// every node.
func BuildAdaptiveTwoPhase(c *cluster.Cluster, opt PlanOptions) {
	c.Net.AddSenders(c.Prm.N)
	for _, n := range c.Nodes {
		scanOut := NewPort(c, fmt.Sprintf("scan-out-%d", n.ID))
		Spawn(c, &Scan{C: c, Node: n, Out: scanOut})
		aggIn := maybeFilter(c, n, scanOut, opt)
		adaptOut := NewPort(c, fmt.Sprintf("adapt-out-%d", n.ID))
		Spawn(c, &AdaptiveAgg{C: c, Node: n, In: aggIn, Out: adaptOut})
		Spawn(c, &SplitSend{C: c, Node: n, In: adaptOut})

		recvOut := NewPort(c, fmt.Sprintf("recv-out-%d", n.ID))
		Spawn(c, &MergeRecv{C: c, Node: n, Out: recvOut})
		mergeOut := NewPort(c, fmt.Sprintf("merge-out-%d", n.ID))
		Spawn(c, &HashAgg{C: c, Node: n, In: recvOut, Out: mergeOut})
		Spawn(c, &Store{C: c, Node: n, In: mergeOut, NoIO: opt.NoIO})
	}
}

// assert the operator contract at compile time.
var _ Operator = (*AdaptiveAgg)(nil)
