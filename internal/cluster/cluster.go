// Package cluster assembles the simulated shared-nothing machine: N nodes,
// each with a CPU, a memory budget of M hash-table entries, one local disk
// holding its partition of the relation, and a NIC on the shared
// interconnect — plus a coordinator endpoint for the centralized
// algorithms. The aggregation algorithms in internal/core run as processes
// on this substrate.
package cluster

import (
	"fmt"

	"parallelagg/internal/des"
	"parallelagg/internal/disk"
	"parallelagg/internal/network"
	"parallelagg/internal/obs"
	"parallelagg/internal/params"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

// NodeMetrics records what one node did during a query.
type NodeMetrics struct {
	Scanned      int64        // tuples read from the local relation partition
	SentRaw      int64        // raw tuples sent over the network
	SentPartials int64        // partial aggregates sent over the network
	RecvRaw      int64        // raw tuples received
	RecvPartials int64        // partial aggregates received
	Spilled      int64        // records spilled to overflow files (all passes)
	GroupsOut    int64        // result groups this node produced
	SwitchedAt   int64        // tuple index where an adaptive switch fired; -1 if never
	Finish       des.Time     // virtual time the node's process finished
	Disk         disk.Metrics // page I/O counts (snapshot at finish)
	CPUBusy      des.Duration // time the node's CPU was in use
	DiskBusy     des.Duration // time the node's disk arm was in use
}

// Node is one processor of the cluster.
type Node struct {
	ID  int
	CPU *des.Resource
	Dsk *disk.Disk
	Rel *disk.Relation

	prm params.Params

	// Metrics is filled in as the node's process runs.
	Metrics NodeMetrics
}

// Work charges instr CPU instructions against this node's processor.
func (n *Node) Work(p *des.Proc, instr float64) {
	if instr <= 0 {
		return
	}
	n.CPU.Use(p, n.prm.CPUTime(instr))
}

// Cluster is the whole simulated machine for one query execution. Build it
// with New, spawn algorithm processes on Sim, then call Sim.Run.
type Cluster struct {
	Sim   *des.Simulation
	Prm   params.Params
	Net   *network.Net
	Nodes []*Node

	// Coord is the coordinator endpoint (inbox index Prm.N) with its own
	// CPU and disk, used by the Centralized Two Phase and Sampling
	// algorithms. It holds no relation partition.
	Coord *Node

	// Result accumulates the final groups produced by all nodes. Algorithm
	// processes append to it; the DES scheduler serializes access.
	Result map[tuple.Key]tuple.AggState

	// Trace, when non-nil, records the execution's spans on the Sim
	// clock. Recording reads the clock and never advances it.
	Trace *trace.Tracer

	// Obs, when non-nil, receives the execution's metrics: phase
	// switches and hash occupancy as they happen, resource utilisation
	// and tuple-flow counters via PublishObs after the run. All values
	// are derived from virtual time and simulation state, never the
	// wall clock, so snapshots are same-seed deterministic.
	Obs *obs.Registry
}

// CoordID returns the inbox index of the coordinator endpoint.
func (c *Cluster) CoordID() int { return c.Prm.N }

// New builds a cluster for prm and loads rel's partitions onto the node
// disks. rel must have exactly prm.N per-node partitions.
func New(prm params.Params, rel *workload.Relation) (*Cluster, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if len(rel.PerNode) != prm.N {
		return nil, fmt.Errorf("cluster: relation has %d partitions for %d nodes", len(rel.PerNode), prm.N)
	}
	sim := des.New()
	c := &Cluster{
		Sim:    sim,
		Prm:    prm,
		Net:    network.New(sim, prm),
		Result: make(map[tuple.Key]tuple.AggState),
	}
	mkNode := func(i int, tuples []tuple.Tuple) *Node {
		d := disk.New(sim, i, prm)
		return &Node{
			ID:      i,
			CPU:     sim.NewResource(fmt.Sprintf("cpu%d", i)),
			Dsk:     d,
			Rel:     d.LoadRelation(tuples),
			prm:     prm,
			Metrics: NodeMetrics{SwitchedAt: -1},
		}
	}
	for i := 0; i < prm.N; i++ {
		c.Nodes = append(c.Nodes, mkNode(i, rel.PerNode[i]))
	}
	c.Coord = mkNode(prm.N, nil)
	return c, nil
}

// Snapshot copies a node's resource usage into its metrics; call it when
// collecting results after Sim.Run.
func (n *Node) Snapshot() {
	n.Metrics.Disk = n.Dsk.Metrics
	n.Metrics.CPUBusy = n.CPU.BusyTime
	n.Metrics.DiskBusy = n.Dsk.BusyTime()
}

// Emit adds final result groups to the cluster result, detecting the
// cardinal sin of a group being produced by two nodes.
func (c *Cluster) Emit(node int, ps []tuple.Partial) error {
	for _, p := range ps {
		if _, dup := c.Result[p.Key]; dup {
			return fmt.Errorf("cluster: group %d emitted twice (second time by node %d)", p.Key, node)
		}
		c.Result[p.Key] = p.State
	}
	return nil
}

// Elapsed returns the completion time of the whole query after Sim.Run.
func (c *Cluster) Elapsed() des.Duration { return des.Duration(c.Sim.Now()) }
