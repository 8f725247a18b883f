package core

import (
	"fmt"
	"math/rand"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/cluster"
	"parallelagg/internal/des"
	"parallelagg/internal/network"
	"parallelagg/internal/sample"
	"parallelagg/internal/tuple"
)

// Decision tags carried in network.Message.Tag by the sampling
// coordinator's broadcast.
const (
	tagDecision2P  = 1
	tagDecisionRep = 2
)

// launchSampling spawns the Sampling algorithm: each node reads a random
// sample of its relation pages, aggregates the sampled tuples, and sends
// the partials to the coordinator; the coordinator counts the distinct
// groups in the union of the samples and broadcasts whether to run
// TwoPhase (few groups) or Rep (many groups). The nodes then execute the
// chosen algorithm over the full relation.
func launchSampling(c *cluster.Cluster, opt Options, res *Result) {
	c.Net.AddSenders(c.Prm.N + 1) // every node, plus the coordinator's broadcast
	for _, n := range c.Nodes {
		n := n
		c.Sim.Spawn(nodeName("samp", n.ID), func(p *des.Proc) {
			runSampNode(c, n, p, opt)
		})
	}
	c.Sim.Spawn("samp-coordinator", func(p *des.Proc) {
		runSampCoordinator(c, p, opt, res)
	})
}

// runSampNode samples, reports, waits for the decision, then runs the
// chosen strategy over the full partition.
func runSampNode(c *cluster.Cluster, n *cluster.Node, p *des.Proc, opt Options) {
	prm := c.Prm

	// Phase 0: page-oriented random sampling of the local partition.
	perNode := opt.SampleTuples / prm.N
	if perNode < 1 {
		perNode = 1
	}
	wantPages := (perNode + prm.TuplesPerDiskPage() - 1) / prm.TuplesPerDiskPage()
	if wantPages > n.Rel.Pages() {
		wantPages = n.Rel.Pages()
	}
	rng := rand.New(rand.NewSource(opt.Seed + int64(n.ID)*7919))
	ship := newShipper(c, n)
	if wantPages > 0 {
		cap := wantPages*prm.TuplesPerDiskPage() + 1
		tab := aggtable.New(cap)
		for _, idx := range rng.Perm(n.Rel.Pages())[:wantPages] {
			ts := n.Rel.ReadPageRand(p, idx)
			n.Metrics.Scanned += int64(len(ts))
			// Select cost plus local aggregation of the sample.
			n.Work(p, float64(len(ts))*(prm.TRead+prm.TWrite+prm.TRead+prm.THash+prm.TAgg))
			for _, t := range ts {
				if !tab.UpdateRaw(t) {
					panic("core: sampling table overflow")
				}
			}
		}
		parts := tab.Drain()
		n.Work(p, prm.TWrite*float64(len(parts)))
		for _, pt := range parts {
			ship.Partial(p, c.CoordID(), pt)
		}
		ship.Flush(p)
	}
	c.Net.Send(p, n.CPU, eosMsg(n.ID, c.CoordID()))

	// Wait for the coordinator's decision, buffering any data that faster
	// nodes may already be sending for the main phase.
	var pending []*network.Message
	decision := 0
	for decision == 0 {
		m, ok := c.Net.Recv(p, n.CPU, n.ID)
		if !ok {
			panic("core: sampling node inbox closed before decision")
		}
		if m.Tag != 0 {
			decision = m.Tag
			break
		}
		pending = append(pending, m)
	}

	// Main phase: run the chosen algorithm over the whole partition.
	var cfg driverConfig
	switch decision {
	case tagDecision2P:
		cfg = configFor2P()
	case tagDecisionRep:
		cfg = configForRep()
	default:
		panic(fmt.Sprintf("core: unknown sampling decision %d", decision))
	}
	d := newDriverNode(c, n, opt, cfg)
	for _, m := range pending {
		d.handleMsg(p, m)
	}
	d.run(p)
}

// runSampCoordinator merges the sample partials, counts groups, and
// broadcasts the decision.
func runSampCoordinator(c *cluster.Cluster, p *des.Proc, opt Options, res *Result) {
	prm := c.Prm
	coord := c.Coord
	freq := make(map[tuple.Key]int64) // sample frequency per observed group
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
			// Computing the number of groups: read each arriving tuple.
			coord.Work(p, prm.TRead*float64(len(m.Partials)))
			coord.Metrics.RecvPartials += int64(len(m.Partials))
			for _, pt := range m.Partials {
				freq[pt.Key] += pt.State.Count
			}
		}
	}
	var singles, doubles int
	for _, n := range freq {
		switch n {
		case 1:
			singles++
		case 2:
			doubles++
		}
	}
	var choice sample.Decision
	var how string
	if opt.Chao1 {
		choice = sample.DecideChao1(len(freq), singles, doubles, opt.CrossoverThreshold)
		how = fmt.Sprintf("Chao1 estimate %.0f from %d distinct", sample.Chao1(len(freq), singles, doubles), len(freq))
	} else {
		choice = sample.Decide(len(freq), opt.CrossoverThreshold)
		how = fmt.Sprintf("sampled %d distinct groups", len(freq))
	}
	decision := tagDecision2P
	if choice == sample.UseRepartitioning {
		decision = tagDecisionRep
	}
	res.Decision = fmt.Sprintf("%s (%s, threshold %d)", choice, how, opt.CrossoverThreshold)
	c.Trace.Begin(c.CoordID(), "decision").End(res.Decision)
	for dst := 0; dst < prm.N; dst++ {
		c.Net.Send(p, coord.CPU, &network.Message{Src: c.CoordID(), Dst: dst, Tag: decision})
	}
	c.Net.Done()
	coord.Metrics.Finish = p.Now()
}
