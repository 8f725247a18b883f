// Package parallelagg is a library reproduction of "Adaptive Parallel
// Aggregation Algorithms" (Shatdal & Naughton, SIGMOD 1995). It implements
// the three traditional parallel GROUP BY strategies — Centralized Two
// Phase, Two Phase and Repartitioning — and the paper's three adaptive
// algorithms — Sampling, Adaptive Two Phase and Adaptive Repartitioning —
// and two baselines of Bitton et al., Broadcast and sort-based Two Phase,
// on a deterministic discrete-event simulation of a shared-nothing cluster,
// plus the paper's analytical cost models.
//
// The aggregation itself is computed for real over synthetic relations
// (every run is verified against a sequential reference); only time is
// virtual, charged from the paper's Table 1 parameters, so experiments are
// exactly reproducible on any machine.
//
// Quick start:
//
//	prm := parallelagg.DefaultParams()
//	rel := parallelagg.Uniform(prm.N, 100_000, 500, 1)
//	res, err := parallelagg.Aggregate(prm, rel, parallelagg.AdaptiveTwoPhase, parallelagg.Options{})
//	// res.Groups holds the verified aggregates; res.Elapsed the simulated time.
//
// See the examples/ directory for runnable scenarios and cmd/aggbench for
// the harness that regenerates every figure in the paper's evaluation.
package parallelagg

import (
	"net"
	"net/http"

	"parallelagg/internal/core"
	"parallelagg/internal/cost"
	"parallelagg/internal/des"
	"parallelagg/internal/harness"
	"parallelagg/internal/obs"
	"parallelagg/internal/params"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

// Params is the cluster and cost configuration (Table 1 of the paper).
type Params = params.Params

// NetworkKind selects between the latency-only (high bandwidth) and
// shared-bus (Ethernet) interconnect models.
type NetworkKind = params.NetworkKind

// Interconnect models.
const (
	LatencyNet   = params.LatencyNet
	SharedBusNet = params.SharedBusNet
)

// DefaultParams returns the paper's analytical-model configuration:
// 32 nodes, 40 MIPS each, an 8M-tuple relation, a fast network.
func DefaultParams() Params { return params.Default() }

// ImplementationParams returns the paper's Section 5 workstation-cluster
// configuration: 8 nodes, 2M tuples, a 10 Mbit/s shared Ethernet.
func ImplementationParams() Params { return params.Implementation() }

// Algorithm selects a parallel aggregation strategy.
type Algorithm = core.Algorithm

// The implemented algorithms, named as in the paper.
const (
	CentralizedTwoPhase    = core.C2P
	TwoPhase               = core.TwoPhase
	OptimizedTwoPhase      = core.OptTwoPhase
	Repartitioning         = core.Rep
	Sampling               = core.Samp
	AdaptiveTwoPhase       = core.A2P
	AdaptiveRepartitioning = core.ARep
	// Broadcast is the Bitton et al. baseline the paper dismisses (§1).
	Broadcast = core.Bcast
	// SortTwoPhase is Two Phase with the sort-based aggregation of Bitton
	// et al., the hash-versus-sort baseline (ext-sort).
	SortTwoPhase = core.Sort2P
)

// Algorithms lists every implemented algorithm in presentation order.
func Algorithms() []Algorithm { return core.All() }

// Options tunes the adaptive and sampling behaviour; the zero value uses
// the paper's defaults.
type Options = core.Options

// Result is the outcome of one simulated execution: verified result
// groups, elapsed virtual time, per-node metrics and network totals.
type Result = core.Result

// Key is a GROUP BY key; AggState the running COUNT/SUM/MIN/MAX (and AVG)
// state of one group.
type (
	Key      = tuple.Key
	AggState = tuple.AggState
)

// Duration is virtual time, in nanoseconds.
type Duration = des.Duration

// Tracer is the execution timeline recorded when Options.Trace is set:
// each node's scan and merge spans, adaptive switches, spill passes and
// the sampling decision, stamped with virtual time. The live and
// distributed engines record the same span type on a wall clock.
type Tracer = trace.Tracer

// Relation is a generated relation declustered across cluster nodes.
type Relation = workload.Relation

// Workload generators (all deterministic in their seed).
var (
	// Uniform: exactly groups distinct keys, uniformly distributed,
	// round-robin declustered — the paper's default workload.
	Uniform = workload.Uniform
	// DupElim: a duplicate-elimination workload with tuples/dupFactor
	// distinct keys.
	DupElim = workload.DupElim
	// InputSkew: node 0 holds skewFactor× the tuples of the others.
	InputSkew = workload.InputSkew
	// OutputSkew: half the nodes hold a single group each (Section 6).
	OutputSkew = workload.OutputSkew
	// RangePartitioned: groups are node-local by key range (extension;
	// contrasts with the paper's round-robin placement).
	RangePartitioned = workload.RangePartitioned
	// Zipf: group frequencies follow a Zipf law (extension).
	Zipf = workload.Zipf
	// TPCD: TPC-D-flavoured lineitem workloads (Q1-like and Q3-like).
	TPCD = workload.TPCD
)

// TPCDQuery identifies a TPC-D-flavoured workload shape.
type TPCDQuery = workload.TPCDQuery

// TPC-D query shapes for the TPCD generator.
const (
	TPCDQ1 = workload.TPCDQ1
	TPCDQ3 = workload.TPCDQ3
)

// Aggregate executes alg over rel on a simulated cluster configured by prm
// and returns timing, metrics, and the (reference-verified) result groups.
func Aggregate(prm Params, rel *Relation, alg Algorithm, opt Options) (*Result, error) {
	return core.Run(prm, rel, alg, opt)
}

// MetricsRegistry collects integer-valued counters and gauges from a
// run. Attach one via Options.Obs; after the run, Snapshot() serializes
// every series in Prometheus text format, sorted, and is byte-identical
// across same-seed simulations (DESIGN.md §9).
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry ready to attach to
// Options.Obs (simulator), dist.Config.Obs, or live.Config.Obs.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// ServeMetrics exposes a registry over HTTP on ln: Prometheus text on
// /metrics, JSON on /metrics.json, and net/http/pprof under
// /debug/pprof/. The returned server is already serving; Close it to
// stop.
func ServeMetrics(ln net.Listener, r *MetricsRegistry) *http.Server { return obs.Serve(ln, r) }

// CostModel evaluates the paper's closed-form cost equations (Sections
// 2–4); CostBreakdown is a per-component estimate in seconds.
type (
	CostModel     = cost.Model
	CostBreakdown = cost.Breakdown
)

// NewCostModel returns an analytical model over prm.
func NewCostModel(prm Params) *CostModel { return cost.New(prm) }

// Experiment is one regenerated table/figure of the paper's evaluation;
// ExperimentRunner produces them.
type (
	Experiment       = harness.Experiment
	ExperimentRunner = harness.Runner
)

// NewExperimentRunner returns a runner; scale 0 selects the quick default
// (an eighth of the paper's 2M-tuple implementation study), seed 0 selects
// seed 1. Model-based figures (1–7) ignore the scale.
func NewExperimentRunner(scale float64, seed int64) ExperimentRunner {
	return harness.NewRunner(scale, seed)
}

// ExperimentIDs lists the paper-figure experiments ("fig1" … "fig9").
func ExperimentIDs() []string { return harness.IDs() }

// ExtensionExperimentIDs lists the extension experiments that follow up on
// the paper's discussion sections: "ext-opt" (static optimizer vs
// estimation error), "ext-sort" (hash vs sort-based aggregation),
// "ext-inputskew" (Section 6.1's input skew), "ext-bcast" (the broadcast
// baseline the paper dismisses) and "ext-simscaleup" (Figures 5-6 validated
// in execution).
func ExtensionExperimentIDs() []string { return harness.ExtIDs() }

// AllExperimentIDs lists every regenerable experiment.
func AllExperimentIDs() []string { return harness.AllIDs() }

// CheckExperiment validates an experiment's data against the paper's
// qualitative claims (who wins where, crossover positions).
func CheckExperiment(e *Experiment) error { return harness.Check(e) }
