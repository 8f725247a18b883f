package core

import (
	"fmt"

	"parallelagg/internal/cluster"
	"parallelagg/internal/des"
	"parallelagg/internal/network"
	"parallelagg/internal/tuple"
)

// launchBroadcast spawns the broadcast algorithm of Bitton et al.
// [BBDW83]: every node sends its raw tuples to EVERY node, and each node
// aggregates only the groups that hash to it, discarding the rest. The
// paper dismisses this approach in Section 1 as "impractical on today's
// multiprocessor interconnects, which do not efficiently support
// broadcasting"; implementing it makes the dismissal measurable. A
// broadcast is modelled as N unicasts — the point-to-point reality the
// paper's remark refers to — so both the wire and every receiver's
// protocol cost multiply by N.
func launchBroadcast(c *cluster.Cluster, opt Options) {
	c.Net.AddSenders(c.Prm.N)
	for _, n := range c.Nodes {
		n := n
		c.Sim.Spawn(nodeName("bcast", n.ID), func(p *des.Proc) {
			runBroadcastNode(c, n, p, opt)
		})
	}
}

func runBroadcastNode(c *cluster.Cluster, n *cluster.Node, p *des.Proc, opt Options) {
	prm := c.Prm
	merge := c.Trace.Begin(n.ID, "merge")
	scan := c.Trace.Begin(n.ID, "scan")
	agg := newAggregator(c, n, prm.TRead+prm.TAgg, prm.Tuples)
	eos := 0

	// handle merges one incoming message: every node reads and hashes every
	// broadcast tuple but aggregates only the groups it owns.
	handle := func(m *network.Message) {
		if m.EOS {
			eos++
		}
		if len(m.Raw) == 0 {
			return
		}
		n.Work(p, (prm.TRead+prm.THash)*float64(len(m.Raw)))
		owned := 0
		for _, t := range m.Raw {
			if t.Key.Dest(prm.N) == n.ID {
				owned++
				agg.AddRaw(p, t)
			}
		}
		n.Work(p, prm.TAgg*float64(owned))
		n.Metrics.RecvRaw += int64(len(m.Raw))
	}

	pageCap := prm.ProjTuplesPerMsgPage()
	batch := make([]tuple.Tuple, 0, pageCap)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		for dst := 0; dst < prm.N; dst++ {
			send := batch
			if dst < prm.N-1 {
				send = append([]tuple.Tuple(nil), batch...)
			}
			n.Metrics.SentRaw += int64(len(send))
			c.Net.Send(p, n.CPU, &network.Message{Src: n.ID, Dst: dst, Raw: send})
		}
		batch = make([]tuple.Tuple, 0, pageCap)
	}

	for i := 0; i < n.Rel.Pages(); i++ {
		ts := n.Rel.ReadPageSeq(p, i)
		n.Metrics.Scanned += int64(len(ts))
		n.Work(p, float64(len(ts))*(prm.TRead+prm.TWrite))
		for _, t := range ts {
			batch = append(batch, t)
			if len(batch) >= pageCap {
				flush()
			}
		}
		for { // drain whatever has already arrived
			m, ok := c.Net.TryRecv(p, n.CPU, n.ID)
			if !ok {
				break
			}
			handle(m)
		}
	}
	flush()
	scan.End(fmt.Sprintf("%d tuples, switched=false, broadcast mode", n.Metrics.Scanned))
	for dst := 0; dst < prm.N; dst++ {
		c.Net.Send(p, n.CPU, eosMsg(n.ID, dst))
	}
	c.Net.Done()
	for eos < prm.N {
		m, ok := c.Net.Recv(p, n.CPU, n.ID)
		if !ok {
			break
		}
		handle(m)
	}
	out := agg.Finalize(p)
	emitResults(c, p, n, out)
	merge.End(fmt.Sprintf("%d groups", len(out)))
	n.Metrics.Finish = p.Now()
}
