package core

import (
	"fmt"
	"strconv"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/cluster"
	"parallelagg/internal/des"
	"parallelagg/internal/network"
	"parallelagg/internal/obs"
	"parallelagg/internal/sample"
	"parallelagg/internal/tuple"
)

// mode is a node's current scanning strategy.
type mode int

const (
	// modeLocal: aggregate scanned tuples into the node's local hash table
	// (the first phase of the Two Phase family).
	modeLocal mode = iota
	// modeRepart: route scanned tuples raw to the node owning their group
	// (the Repartitioning strategy).
	modeRepart
)

// driverConfig describes one member of the partitioned-merge algorithm
// family (every algorithm except C2P and the sampling front-end). All
// family members share the same merge phase: each node owns the groups that
// hash to it and merges whatever arrives — raw tuples, partial aggregates,
// or both.
type driverConfig struct {
	start mode

	// localSpill: the local phase folds into a groupAgg, which spools what
	// does not fit to disk (plain 2P).
	localSpill bool
	// sortRuns: both groupAggs sort runs instead of hashing (Sort-2P).
	sortRuns bool
	// forwardOnFull: a full local table forwards overflow tuples raw to
	// their merge node (Graefe's optimized 2P).
	forwardOnFull bool
	// switchOnFull: a full local table triggers the Adaptive Two Phase
	// switch — flush partials, then repartition the rest.
	switchOnFull bool
	// observe: judge the first M/2 scanned tuples and fall back to the A2P
	// strategy when their groups fit the table (Adaptive Repartitioning).
	observe bool
}

func configFor2P() driverConfig { return driverConfig{start: modeLocal, localSpill: true} }
func configForSort2P() driverConfig {
	return driverConfig{start: modeLocal, localSpill: true, sortRuns: true}
}
func configForOpt2P() driverConfig {
	return driverConfig{start: modeLocal, forwardOnFull: true}
}
func configForRep() driverConfig { return driverConfig{start: modeRepart} }
func configForA2P() driverConfig {
	return driverConfig{start: modeLocal, switchOnFull: true}
}
func configForARep() driverConfig {
	return driverConfig{start: modeRepart, switchOnFull: true, observe: true}
}

// driverNode is the per-node state machine of the partitioned family.
type driverNode struct {
	c   *cluster.Cluster
	n   *cluster.Node
	opt Options
	cfg driverConfig

	mode     mode
	scanning bool

	// local phase state: exactly one of localAgg (spilling) or localTab
	// (bounded, adaptive) is set while mode may be modeLocal.
	localAgg groupAgg
	localTab *aggtable.Table

	global groupAgg // merge phase aggregation (groups hashing to this node)
	ship   *shipper

	eos     int
	eopSent bool

	// ARep's window: the tuples it has counted, until it is judged, and
	// the verdict the scan span's note ends with.
	obsDone bool
	obsSeen int
	verdict string

	// Metrics handles, resolved once per node; nil (and therefore no-ops)
	// when the cluster has no registry attached.
	mSwitch  *obs.CounterVec
	mHashOcc *obs.Gauge
}

func newDriverNode(c *cluster.Cluster, n *cluster.Node, opt Options, cfg driverConfig) *driverNode {
	prm := c.Prm
	d := &driverNode{
		c:        c,
		n:        n,
		opt:      opt,
		cfg:      cfg,
		mode:     cfg.start,
		scanning: true,
		obsDone:  !cfg.observe || prm.HashEntries < 2, // not ARep, or no window
		ship:     newShipper(c, n),
		global: cfg.newAgg(c, n, prm.TRead+prm.TAgg,
			prm.Tuples/int64(prm.N)+1),
	}
	if c.Obs != nil {
		d.mSwitch = c.Obs.CounterVec("sim_phase_switch_total",
			"adaptive strategy switches fired", "node", "to")
		d.mHashOcc = c.Obs.GaugeVec("sim_hash_occupancy_permille",
			"high-water fill of the local hash table per 1000 entries", "node").
			With(strconv.Itoa(n.ID))
	}
	if cfg.start == modeLocal || cfg.observe {
		d.initLocal()
	}
	return d
}

// initLocal prepares the local-phase structure for this configuration.
func (d *driverNode) initLocal() {
	prm := d.c.Prm
	if d.cfg.localSpill {
		d.localAgg = d.cfg.newAgg(d.c, d.n, prm.TRead+prm.THash+prm.TAgg,
			int64(d.n.Rel.Len()))
	} else {
		d.localTab = aggtable.New(prm.HashEntries)
	}
}

// newAgg builds a local or merge aggregation: a sorter for Sort-2P, else a
// hashing aggregator charging instr per first-pass record.
func (cfg driverConfig) newAgg(c *cluster.Cluster, n *cluster.Node, instr float64, expected int64) groupAgg {
	if cfg.sortRuns {
		return &sorter{c: c, n: n}
	}
	return newAggregator(c, n, instr, expected)
}

// scanPage processes one page of scanned tuples according to the current
// mode, batching the per-tuple CPU charges into one Work call.
func (d *driverNode) scanPage(p *des.Proc, ts []tuple.Tuple) {
	prm := d.c.Prm
	var instr float64
	for _, t := range ts {
		if d.mode == modeLocal {
			// Getting the tuple off the data page, then local aggregation.
			instr += prm.TRead + prm.TWrite
			if d.cfg.localSpill {
				instr += d.localAgg.instr()
				d.localAgg.AddRaw(p, t)
				continue
			}
			if d.localTab.UpdateRaw(t) {
				instr += prm.TRead + prm.THash + prm.TAgg
				continue
			}
			// Local table is full and this tuple starts a new group.
			if d.cfg.forwardOnFull {
				// Optimized 2P: forward the tuple to its merge node, keep
				// the local table.
				instr += prm.THash + prm.TDest
				d.ship.Raw(p, t.Key.Dest(prm.N), t)
				continue
			}
			// Adaptive 2P: flush partials and repartition from here on.
			d.n.Work(p, instr)
			instr = 0
			d.switchToRepart(p)
			// fall through: reprocess t in repartitioning mode
		}
		// Repartitioning: read, write, hash, destination, then route.
		instr += prm.TRead + prm.TWrite + prm.THash + prm.TDest
		d.ship.Raw(p, t.Key.Dest(prm.N), t)
		if !d.obsDone {
			d.observe(p, t)
		}
	}
	d.n.Work(p, instr)
	if d.localTab != nil && d.localTab.Cap() > 0 {
		d.mHashOcc.Max(int64(1000 * d.localTab.Len() / d.localTab.Cap()))
	}
	d.drainInbox(p)
}

// observe implements the ARep decision rule: count the first M/2 scanned
// tuples in the (still idle) local table, then let sample.FallBack judge
// Chao1 over their profile; when the node's groups fit the table,
// repartitioning is wasted effort — broadcast end-of-phase and fall back
// to the A2P strategy.
func (d *driverNode) observe(p *des.Proc, t tuple.Tuple) {
	d.localTab.UpdateRaw(t)
	if d.obsSeen++; d.obsSeen < d.c.Prm.HashEntries/2 {
		return
	}
	d.obsDone = true
	var prof sample.Profile
	d.localTab.Each(func(_ tuple.Key, s tuple.AggState) { prof.Add(s.Count) })
	est, fell := sample.FallBack(sample.Chao1(d.localTab.Len(), prof.F1, prof.F2), d.n.Rel.Len(), d.c.Prm.HashEntries)
	verdict := sample.Verdict(est, d.c.Prm.HashEntries, fell, prof)
	d.verdict = ", " + verdict
	d.localTab.Reset() // the window went out raw
	if fell {
		d.endOfPhase(p, verdict)
	}
}

// endOfPhase performs the ARep fallback on this node and tells everyone
// else, exactly once; note is the end-of-phase span's.
func (d *driverNode) endOfPhase(p *des.Proc, note string) {
	// A node that has already finished its scan must not react: it has
	// nothing left to re-route, and its send side is closed (relaying here
	// would violate the network's sender contract).
	if d.eopSent || !d.scanning {
		return
	}
	d.eopSent = true
	d.c.Trace.Begin(d.n.ID, "end-of-phase").End(note)
	d.ship.BroadcastEndOfPhase(p)
	d.switchToLocal(p)
}

// switchToLocal moves a repartitioning node to local aggregation (the ARep
// → A2P fallback). The merge table built so far stays in place.
func (d *driverNode) switchToLocal(p *des.Proc) {
	if !d.scanning || d.mode == modeLocal {
		return
	}
	d.mode = modeLocal
	d.localTab.Reset() // a window cut short by a relayed end-of-phase went out raw
	if d.n.Metrics.SwitchedAt < 0 {
		d.n.Metrics.SwitchedAt = d.n.Metrics.Scanned
	}
	d.mSwitch.With(strconv.Itoa(d.n.ID), "local").Inc()
	d.c.Trace.Begin(d.n.ID, "switch").End(
		fmt.Sprintf("falling back to local aggregation after %d tuples", d.n.Metrics.Scanned))
}

// switchToRepart performs the A2P switch: flush the accumulated local
// partials to their merge nodes, free the memory, and repartition the
// remaining tuples.
func (d *driverNode) switchToRepart(p *des.Proc) {
	d.mode = modeRepart
	d.n.Metrics.SwitchedAt = d.n.Metrics.Scanned
	d.mSwitch.With(strconv.Itoa(d.n.ID), "repart").Inc()
	d.c.Trace.Begin(d.n.ID, "switch").End(
		fmt.Sprintf("local table full after %d tuples; repartitioning", d.n.Metrics.Scanned))
	d.flushLocalPartials(p)
}

// flushLocalPartials drains the local table (or spilling aggregator) and
// ships every partial to the node owning its group.
func (d *driverNode) flushLocalPartials(p *des.Proc) {
	var parts []tuple.Partial
	switch {
	case d.localAgg != nil:
		parts = d.localAgg.Finalize(p)
	case d.localTab != nil:
		parts = d.localTab.Drain()
	default:
		return
	}
	prm := d.c.Prm
	d.n.Work(p, prm.TWrite*float64(len(parts)))
	for _, pt := range parts {
		d.ship.Partial(p, pt.Key.Dest(prm.N), pt)
	}
}

// handleMsg merges one incoming message into the global table.
func (d *driverNode) handleMsg(p *des.Proc, m *network.Message) {
	if m.EndOfPhase && d.cfg.observe {
		// Another node decided repartitioning is wasted; follow suit.
		d.obsDone = true
		d.endOfPhase(p, "broadcasting end-of-phase")
	}
	if k := len(m.Raw) + len(m.Partials); k > 0 {
		d.n.Work(p, d.global.instr()*float64(k))
		for _, t := range m.Raw {
			d.global.AddRaw(p, t)
		}
		for _, pt := range m.Partials {
			d.global.AddPartial(p, pt)
		}
		d.n.Metrics.RecvRaw += int64(len(m.Raw))
		d.n.Metrics.RecvPartials += int64(len(m.Partials))
	}
	if m.EOS {
		d.eos++
	}
}

// drainInbox processes every message already delivered, without blocking.
func (d *driverNode) drainInbox(p *des.Proc) {
	for {
		m, ok := d.c.Net.TryRecv(p, d.n.CPU, d.n.ID)
		if !ok {
			return
		}
		d.handleMsg(p, m)
	}
}

// run is the node's whole life: scan, finish the local phase, then merge
// until every node has said EOS, and emit this node's share of the result.
func (d *driverNode) run(p *des.Proc) {
	startMode := "local"
	if d.mode == modeRepart {
		startMode = "repartition"
	}
	merge := d.c.Trace.Begin(d.n.ID, "merge")
	scan := d.c.Trace.Begin(d.n.ID, "scan")
	for i := 0; i < d.n.Rel.Pages(); i++ {
		ts := d.n.Rel.ReadPageSeq(p, i)
		d.n.Metrics.Scanned += int64(len(ts))
		d.scanPage(p, ts)
	}
	d.scanning = false
	scan.End(fmt.Sprintf("%d tuples, switched=%v, %s mode%s",
		d.n.Metrics.Scanned, d.n.Metrics.SwitchedAt >= 0, startMode, d.verdict))
	if d.mode == modeLocal {
		d.flushLocalPartials(p)
	}
	d.ship.Flush(p)
	d.ship.BroadcastEOS(p)
	d.c.Net.Done()
	for d.eos < d.c.Prm.N {
		m, ok := d.c.Net.Recv(p, d.n.CPU, d.n.ID)
		if !ok {
			break
		}
		d.handleMsg(p, m)
	}
	out := d.global.Finalize(p)
	emitResults(d.c, p, d.n, out)
	merge.End(fmt.Sprintf("%d groups", len(out)))
	d.n.Metrics.Finish = p.Now()
}

// launchPartitioned spawns one driver process per node for any member of
// the partitioned-merge family.
func launchPartitioned(c *cluster.Cluster, opt Options, cfg driverConfig) {
	c.Net.AddSenders(c.Prm.N)
	for _, n := range c.Nodes {
		d := newDriverNode(c, n, opt, cfg)
		c.Sim.Spawn(driverName(cfg, n.ID), d.run)
	}
}

func driverName(cfg driverConfig, id int) string {
	switch {
	case cfg.observe:
		return nodeName("arep", id)
	case cfg.switchOnFull:
		return nodeName("a2p", id)
	case cfg.forwardOnFull:
		return nodeName("opt2p", id)
	case cfg.sortRuns:
		return nodeName("sort2p", id)
	case cfg.localSpill:
		return nodeName("2p", id)
	default:
		return nodeName("rep", id)
	}
}

func nodeName(alg string, id int) string {
	return alg + "-node-" + strconv.Itoa(id)
}
