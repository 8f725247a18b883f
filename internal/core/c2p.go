package core

import (
	"parallelagg/internal/cluster"
	"parallelagg/internal/des"
)

// launchC2P spawns the Centralized Two Phase algorithm: every node
// aggregates its partition locally and streams the partial results to a
// single coordinator, which merges them and stores the final result. The
// sequential merge is the algorithm's famous bottleneck once the group
// count grows.
func launchC2P(c *cluster.Cluster, opt Options) {
	c.Net.AddSenders(c.Prm.N)
	for _, n := range c.Nodes {
		n := n
		c.Sim.Spawn(nodeName("c2p", n.ID), func(p *des.Proc) {
			runC2PWorker(c, n, p, opt)
		})
	}
	c.Sim.Spawn("c2p-coordinator", func(p *des.Proc) {
		runC2PCoordinator(c, p, opt)
	})
}

// runC2PWorker is phase one on one node: scan, aggregate locally (spilling
// overflow to the local disk), and send the partials to the coordinator.
func runC2PWorker(c *cluster.Cluster, n *cluster.Node, p *des.Proc, opt Options) {
	prm := c.Prm
	agg := newAggregator(c, n, prm.TRead+prm.THash+prm.TAgg, int64(n.Rel.Len()))
	for i := 0; i < n.Rel.Pages(); i++ {
		ts := n.Rel.ReadPageSeq(p, i)
		n.Metrics.Scanned += int64(len(ts))
		// Select cost (off the data page) plus local aggregation.
		n.Work(p, float64(len(ts))*(prm.TRead+prm.TWrite))
		agg.chargeBatch(p, len(ts))
		for _, t := range ts {
			agg.AddRaw(p, t)
		}
	}
	parts := agg.Finalize(p)
	n.Work(p, prm.TWrite*float64(len(parts)))
	ship := newShipper(c, n)
	for _, pt := range parts {
		ship.Partial(p, c.CoordID(), pt)
	}
	ship.Flush(p)
	c.Net.Send(p, n.CPU, eosMsg(n.ID, c.CoordID()))
	c.Net.Done()
	n.Metrics.Finish = p.Now()
}

// runC2PCoordinator is phase two: merge every node's partials sequentially
// and store the result.
func runC2PCoordinator(c *cluster.Cluster, p *des.Proc, opt Options) {
	prm := c.Prm
	coord := c.Coord
	agg := newAggregator(c, coord, prm.TRead+prm.TAgg, prm.Tuples)
	eos := 0
	for eos < prm.N {
		m, ok := c.Net.Recv(p, coord.CPU, c.CoordID())
		if !ok {
			break
		}
		if m.EOS {
			eos++
		}
		if len(m.Partials) > 0 {
			agg.chargeBatch(p, len(m.Partials))
			for _, pt := range m.Partials {
				agg.AddPartial(p, pt)
			}
			coord.Metrics.RecvPartials += int64(len(m.Partials))
		}
	}
	out := agg.Finalize(p)
	emitResults(c, p, coord, out)
	coord.Metrics.Finish = p.Now()
}
