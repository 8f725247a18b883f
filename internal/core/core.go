// Package core implements the parallel aggregation algorithms of Shatdal &
// Naughton, "Adaptive Parallel Aggregation Algorithms" (SIGMOD 1995), on
// the simulated shared-nothing cluster of internal/cluster:
//
//   - Centralized Two Phase (C2P): local aggregation, then a single
//     coordinator merges all partial results.
//   - Two Phase (TwoPhase): local aggregation, then the partials are
//     hash-partitioned and merged in parallel on all nodes.
//   - Optimized Two Phase (OptTwoPhase): Graefe's variant — when the local
//     hash table fills, overflow tuples are forwarded raw to their merge
//     node instead of being spooled to disk.
//   - Repartitioning (Rep): hash-partition the raw tuples first, then
//     aggregate each partition in parallel.
//   - Sampling (Samp): sample each node's partition, count groups at a
//     coordinator, then run TwoPhase or Rep.
//   - Adaptive Two Phase (A2P): start as TwoPhase; a node whose local hash
//     table fills flushes its partials and repartitions the rest raw.
//   - Adaptive Repartitioning (ARep): start as Rep; a node whose first M/2
//     tuples project to groups its table holds (sample.FallBack) broadcasts
//     end-of-phase and every node falls back to the A2P strategy, reusing
//     the merge table built so far.
//   - Broadcast (Bcast) and Sort Two Phase (Sort2P): the baselines of
//     Bitton et al. [BBDW83] — every tuple sent to every node, and Two
//     Phase with sort-based instead of hash aggregation.
//
// Every algorithm produces the exact aggregation result; Run verifies it
// against a sequential reference fold before returning.
package core

import (
	"fmt"
	"sort"

	"parallelagg/internal/cluster"
	"parallelagg/internal/des"
	"parallelagg/internal/network"
	"parallelagg/internal/obs"
	"parallelagg/internal/params"
	"parallelagg/internal/sample"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

// Algorithm selects a parallel aggregation strategy.
type Algorithm int

const (
	C2P Algorithm = iota
	TwoPhase
	OptTwoPhase
	Rep
	Samp
	A2P
	ARep
	// Bcast is the broadcast baseline of Bitton et al. [BBDW83], which the
	// paper dismisses in Section 1; included so the dismissal is measurable.
	Bcast
	// Sort2P is Two Phase with the sort-based aggregation of [BBDW83] on
	// both sides: the hash-versus-sort baseline.
	Sort2P
)

var algNames = map[Algorithm]string{
	C2P:         "C-2P",
	TwoPhase:    "2P",
	OptTwoPhase: "Opt-2P",
	Rep:         "Rep",
	Samp:        "Samp",
	A2P:         "A-2P",
	ARep:        "A-Rep",
	Bcast:       "Bcast",
	Sort2P:      "Sort-2P",
}

// String returns the paper's abbreviation for the algorithm.
func (a Algorithm) String() string {
	if s, ok := algNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// All lists every implemented algorithm in presentation order (the paper's
// seven plus the broadcast and sort-based baselines).
func All() []Algorithm {
	return []Algorithm{C2P, TwoPhase, OptTwoPhase, Rep, Samp, A2P, ARep, Bcast, Sort2P}
}

// Options tunes the adaptive and sampling behaviour. The zero value selects
// the defaults described on each field.
type Options struct {
	// CrossoverThreshold is the group count at which the Sampling
	// algorithm switches from TwoPhase to Rep. Default: 100 × N (the
	// paper's analytical-study setting).
	CrossoverThreshold int

	// SampleTuples is the total sample size across the cluster. Default:
	// 10 × CrossoverThreshold, the paper's [ER61]-derived rule of thumb.
	SampleTuples int

	// MaxBuckets caps the fan-out of overflow partitioning. Default: 64.
	MaxBuckets int

	// Seed drives sampling page choice. Default: 1.
	Seed int64

	// NoResultStore suppresses the final result-write I/O, modelling an
	// aggregation feeding a pipeline instead of a store (Figure 2).
	NoResultStore bool

	// Trace records the execution's spans on the simulator's virtual
	// clock into Result.Trace: per node a scan and a merge span, adaptive
	// switches, end-of-phase broadcasts, spill passes and the sampling
	// decision (DESIGN.md §9). Recording never moves the simulation.
	Trace bool

	// Obs, when non-nil, receives the execution's metrics: per-node
	// virtual-time resource utilisation, tuple-flow counters, adaptive
	// phase-switch events and hash-table occupancy. Snapshot() of the
	// registry is byte-identical across same-seed runs.
	Obs *obs.Registry
}

func (o Options) withDefaults(prm params.Params) Options {
	if o.CrossoverThreshold == 0 {
		o.CrossoverThreshold = 100 * prm.N
	}
	if o.SampleTuples == 0 {
		o.SampleTuples = sample.RequiredTuples(o.CrossoverThreshold)
	}
	if o.MaxBuckets == 0 {
		o.MaxBuckets = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result is the outcome of one simulated query execution.
type Result struct {
	Algorithm Algorithm
	Groups    map[tuple.Key]tuple.AggState
	Elapsed   des.Duration
	Nodes     []cluster.NodeMetrics
	Net       network.Metrics

	// Decision records the Sampling algorithm's choice ("2P" or "Rep"),
	// the sampled group count, or is empty for other algorithms.
	Decision string

	// Switched counts nodes that changed strategy mid-query (adaptive
	// algorithms only).
	Switched int

	// Trace holds the execution's spans in virtual nanoseconds (nil
	// unless Options.Trace was set).
	Trace *trace.Tracer
}

// Run executes alg over rel on a simulated cluster configured by prm and
// returns the timing, metrics and (verified) result groups.
func Run(prm params.Params, rel *workload.Relation, alg Algorithm, opt Options) (*Result, error) {
	prm.Tuples = rel.Tuples() // keep cost-sizing hints consistent with the data
	opt = opt.withDefaults(prm)
	c, err := cluster.New(prm, rel)
	if err != nil {
		return nil, err
	}
	res := &Result{Algorithm: alg}
	if opt.Trace {
		c.Trace = trace.NewTracer(func() int64 { return int64(c.Sim.Now()) })
		res.Trace = c.Trace
	}
	c.Obs = opt.Obs
	switch alg {
	case C2P:
		launchC2P(c, opt)
	case TwoPhase:
		launchPartitioned(c, opt, configFor2P())
	case OptTwoPhase:
		launchPartitioned(c, opt, configForOpt2P())
	case Rep:
		launchPartitioned(c, opt, configForRep())
	case Samp:
		launchSampling(c, opt, res)
	case A2P:
		launchPartitioned(c, opt, configForA2P())
	case ARep:
		launchPartitioned(c, opt, configForARep())
	case Bcast:
		launchBroadcast(c, opt)
	case Sort2P:
		launchPartitioned(c, opt, configForSort2P())
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", alg)
	}
	if err := c.Sim.Run(); err != nil {
		return nil, fmt.Errorf("core: %v: %w", alg, err)
	}
	res.Groups = c.Result
	res.Elapsed = c.Elapsed()
	res.Net = c.Net.Metrics
	for _, n := range c.Nodes {
		n.Snapshot()
		res.Nodes = append(res.Nodes, n.Metrics)
		if n.Metrics.SwitchedAt >= 0 {
			res.Switched++
		}
	}
	c.PublishObs()
	if err := verify(rel, res.Groups); err != nil {
		return nil, fmt.Errorf("core: %v produced a wrong answer: %w", alg, err)
	}
	return res, nil
}

// verify checks an algorithm's output against the sequential reference.
func verify(rel *workload.Relation, got map[tuple.Key]tuple.AggState) error {
	want := rel.Reference()
	if len(got) != len(want) {
		return fmt.Errorf("group count = %d, want %d", len(got), len(want))
	}
	// Check groups in key order so a multi-group mismatch reports the
	// same key on every run.
	keys := make([]tuple.Key, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		gs, ok := got[k]
		if !ok {
			return fmt.Errorf("group %d missing", k)
		}
		if ws := want[k]; gs != ws {
			return fmt.Errorf("group %d state = %v, want %v", k, gs, ws)
		}
	}
	return nil
}
