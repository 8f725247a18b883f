package core

import (
	"fmt"
	"strings"
	"testing"

	"parallelagg/internal/des"

	"parallelagg/internal/params"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

// testParams returns a small configuration that still exercises memory
// overflow and adaptive switching: M = 64 hash entries per table.
func testParams(n int) params.Params {
	p := params.Default()
	p.N = n
	p.HashEntries = 64
	return p
}

func run(t *testing.T, prm params.Params, rel *workload.Relation, alg Algorithm, opt Options) *Result {
	t.Helper()
	res, err := Run(prm, rel, alg, opt)
	if err != nil {
		t.Fatalf("%v on %s: %v", alg, rel.Name, err)
	}
	return res
}

// TestAllAlgorithmsAllWorkloads is the main correctness matrix: every
// algorithm must produce the exact reference answer on every workload
// shape. Run itself verifies the result; this test also checks metrics
// invariants.
func TestAllAlgorithmsAllWorkloads(t *testing.T) {
	const n = 4
	workloads := []*workload.Relation{
		workload.Uniform(n, 4000, 1, 1),    // scalar aggregate
		workload.Uniform(n, 4000, 10, 2),   // few groups (2P territory)
		workload.Uniform(n, 4000, 300, 3),  // overflows M=64 locally
		workload.Uniform(n, 4000, 2000, 4), // duplicate-elimination-ish
		workload.DupElim(n, 4000, 2, 5),    // S = 0.5
		workload.InputSkew(n, 4000, 50, 4, 6),
		workload.OutputSkew(n, 4000, 100, 7),
		workload.Zipf(n, 4000, 500, 1.3, 8),
		workload.TPCD(n, 3000, workload.TPCDQ1, 9),
		workload.TPCD(n, 3000, workload.TPCDQ3, 10),
	}
	for _, alg := range All() {
		for _, rel := range workloads {
			alg, rel := alg, rel
			t.Run(fmt.Sprintf("%v/%s", alg, rel.Name), func(t *testing.T) {
				res := run(t, testParams(n), rel, alg, Options{})
				if res.Elapsed <= 0 {
					t.Error("Elapsed not positive")
				}
				var scanned, out int64
				for _, m := range res.Nodes {
					scanned += m.Scanned
					out += m.GroupsOut
				}
				// C2P/Samp also count sampling reads and coordinator output.
				if alg != Samp && alg != C2P {
					if scanned != rel.Tuples() {
						t.Errorf("scanned %d tuples, want %d", scanned, rel.Tuples())
					}
					if out != int64(len(res.Groups)) {
						t.Errorf("nodes emitted %d groups, result has %d", out, len(res.Groups))
					}
				}
			})
		}
	}
}

// TestEmptyRelation runs every algorithm over a relation with no tuples at
// all: the protocols must still terminate and produce zero groups.
func TestEmptyRelation(t *testing.T) {
	rel := &workload.Relation{PerNode: make([][]tuple.Tuple, 4), Name: "empty"}
	for _, alg := range All() {
		t.Run(alg.String(), func(t *testing.T) {
			res := run(t, testParams(4), rel, alg, Options{})
			if len(res.Groups) != 0 {
				t.Errorf("empty relation produced %d groups", len(res.Groups))
			}
		})
	}
}

// TestEmptyPartitions exercises nodes that hold no tuples at all.
func TestEmptyPartitions(t *testing.T) {
	rel := workload.Uniform(4, 2, 1, 1) // 2 tuples over 4 nodes: two empty nodes
	for _, alg := range All() {
		t.Run(alg.String(), func(t *testing.T) {
			run(t, testParams(4), rel, alg, Options{})
		})
	}
}

func TestSingleNodeCluster(t *testing.T) {
	rel := workload.Uniform(1, 1000, 200, 1)
	for _, alg := range All() {
		t.Run(alg.String(), func(t *testing.T) {
			run(t, testParams(1), rel, alg, Options{})
		})
	}
}

func TestTinyMemoryM1(t *testing.T) {
	prm := testParams(4)
	prm.HashEntries = 1
	rel := workload.Uniform(4, 500, 40, 11)
	for _, alg := range All() {
		t.Run(alg.String(), func(t *testing.T) {
			run(t, prm, rel, alg, Options{})
		})
	}
}

func TestDeterministicElapsed(t *testing.T) {
	prm := testParams(4)
	for _, alg := range All() {
		rel := workload.Uniform(4, 3000, 200, 21)
		a := run(t, prm, rel, alg, Options{})
		b := run(t, prm, workload.Uniform(4, 3000, 200, 21), alg, Options{})
		if a.Elapsed != b.Elapsed {
			t.Errorf("%v: elapsed differs across identical runs: %v vs %v", alg, a.Elapsed, b.Elapsed)
		}
	}
}

func TestSharedBusConfiguration(t *testing.T) {
	prm := params.Implementation()
	prm.N = 4
	prm.HashEntries = 64
	rel := workload.Uniform(4, 4000, 500, 31)
	for _, alg := range All() {
		t.Run(alg.String(), func(t *testing.T) {
			run(t, prm, rel, alg, Options{})
		})
	}
}

func TestA2PSwitchesOnlyWhenMemoryOverflows(t *testing.T) {
	prm := testParams(4)
	// Few groups: fits in M=64, must NOT switch.
	res := run(t, prm, workload.Uniform(4, 2000, 20, 41), A2P, Options{})
	if res.Switched != 0 {
		t.Errorf("A2P switched %d nodes on a small-group workload", res.Switched)
	}
	// Many groups: every node's local table overflows, all must switch.
	res = run(t, prm, workload.Uniform(4, 2000, 1500, 42), A2P, Options{})
	if res.Switched != prm.N {
		t.Errorf("A2P switched %d of %d nodes on a large-group workload", res.Switched, prm.N)
	}
}

func TestA2PSwitchReducesSpillVersus2P(t *testing.T) {
	prm := testParams(4)
	rel := workload.Uniform(4, 4000, 2000, 43)
	twoP := run(t, prm, rel, TwoPhase, Options{})
	a2p := run(t, prm, workload.Uniform(4, 4000, 2000, 43), A2P, Options{})
	spill := func(r *Result) (s int64) {
		for _, m := range r.Nodes {
			s += m.Spilled
		}
		return
	}
	if spill(a2p) >= spill(twoP) {
		t.Errorf("A2P spilled %d records, plain 2P %d; adaptive switch should avoid local spills",
			spill(a2p), spill(twoP))
	}
}

func TestARepFallsBackOnFewGroups(t *testing.T) {
	prm := testParams(4)
	// 5 groups: a node's 32-tuple window projects to at most 5 ≤ M = 64 →
	// fall back.
	res := run(t, prm, workload.Uniform(4, 4000, 5, 51), ARep, Options{})
	if res.Switched != prm.N {
		t.Errorf("ARep fell back on %d of %d nodes for a 5-group workload", res.Switched, prm.N)
	}
	// 2000 groups: the window's mostly distinct keys project past M, and
	// it stays repartitioning everywhere.
	res = run(t, prm, workload.Uniform(4, 4000, 2000, 52), ARep, Options{})
	if res.Switched != 0 {
		t.Errorf("ARep fell back on %d nodes for a 2000-group workload", res.Switched)
	}
}

func TestSamplingDecision(t *testing.T) {
	prm := testParams(4)
	opt := Options{CrossoverThreshold: 100}
	res := run(t, prm, workload.Uniform(4, 8000, 10, 61), Samp, opt)
	if !strings.HasPrefix(res.Decision, "2P") {
		t.Errorf("decision for 10 groups = %q, want 2P", res.Decision)
	}
	res = run(t, prm, workload.Uniform(4, 8000, 4000, 62), Samp, opt)
	if !strings.HasPrefix(res.Decision, "Rep") {
		t.Errorf("decision for 4000 groups = %q, want Rep", res.Decision)
	}
}

func TestRepSendsEverythingRaw(t *testing.T) {
	prm := testParams(4)
	rel := workload.Uniform(4, 2000, 100, 71)
	res := run(t, prm, rel, Rep, Options{})
	var raw, part int64
	for _, m := range res.Nodes {
		raw += m.SentRaw
		part += m.SentPartials
	}
	if raw != rel.Tuples() {
		t.Errorf("Rep sent %d raw tuples, want all %d", raw, rel.Tuples())
	}
	if part != 0 {
		t.Errorf("Rep sent %d partials, want 0", part)
	}
}

func TestTwoPhaseSendsOnlyPartials(t *testing.T) {
	prm := testParams(4)
	rel := workload.Uniform(4, 2000, 10, 72)
	res := run(t, prm, rel, TwoPhase, Options{})
	var raw, part int64
	for _, m := range res.Nodes {
		raw += m.SentRaw
		part += m.SentPartials
	}
	if raw != 0 {
		t.Errorf("2P sent %d raw tuples, want 0", raw)
	}
	// 10 groups on each of 4 nodes → exactly 40 partials.
	if part != 40 {
		t.Errorf("2P sent %d partials, want 40", part)
	}
}

func TestOpt2PForwardsRawOnOverflow(t *testing.T) {
	prm := testParams(4)
	rel := workload.Uniform(4, 4000, 2000, 73)
	res := run(t, prm, rel, OptTwoPhase, Options{})
	var raw int64
	for _, m := range res.Nodes {
		raw += m.SentRaw
	}
	if raw == 0 {
		t.Error("Opt2P forwarded no raw tuples despite guaranteed overflow")
	}
	var spilled int64
	for _, m := range res.Nodes {
		spilled += m.Spilled
	}
	// Local phase must not spill (forwarding replaces spooling); only the
	// merge phase may.
	twoP := run(t, prm, workload.Uniform(4, 4000, 2000, 73), TwoPhase, Options{})
	var spilled2P int64
	for _, m := range twoP.Nodes {
		spilled2P += m.Spilled
	}
	if spilled >= spilled2P {
		t.Errorf("Opt2P spilled %d vs 2P %d; forwarding should reduce spills", spilled, spilled2P)
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	rel := workload.Uniform(4, 100, 10, 1)
	if _, err := Run(testParams(4), rel, Algorithm(99), Options{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestMismatchedPartitionsRejected(t *testing.T) {
	rel := workload.Uniform(2, 100, 10, 1)
	if _, err := Run(testParams(4), rel, Rep, Options{}); err == nil {
		t.Error("2-partition relation accepted on a 4-node cluster")
	}
}

// spansNamed returns the spans called name, in Spans order.
func spansNamed(tr *trace.Tracer, name string) []trace.Span {
	var out []trace.Span
	for _, s := range tr.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func TestTraceRecordsAdaptiveTimeline(t *testing.T) {
	prm := testParams(4)
	rel := workload.Uniform(4, 4000, 2000, 91) // forces A2P switches
	res := run(t, prm, rel, A2P, Options{Trace: true})
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("no trace recorded")
	}
	for _, name := range []string{"scan", "merge"} {
		perNode := make([]int, prm.N)
		for _, s := range spansNamed(res.Trace, name) {
			perNode[s.Node]++
			if s.End < s.Start {
				t.Errorf("%s span %+v ends before it starts", name, s)
			}
		}
		for node, k := range perNode {
			if k != 1 {
				t.Errorf("node %d has %d %s spans, want 1", node, k, name)
			}
		}
	}
	switches := spansNamed(res.Trace, "switch")
	if len(switches) != res.Switched {
		t.Errorf("%d switch spans, %d switched nodes", len(switches), res.Switched)
	}
	// Without the option, no trace is attached.
	res = run(t, prm, workload.Uniform(4, 4000, 2000, 91), A2P, Options{})
	if res.Trace != nil {
		t.Error("trace attached without Options.Trace")
	}
}

func TestTraceRecordsSamplingDecision(t *testing.T) {
	prm := testParams(4)
	res := run(t, prm, workload.Uniform(4, 4000, 10, 92), Samp, Options{Trace: true})
	if got := spansNamed(res.Trace, "decision"); len(got) != 1 {
		t.Fatalf("decision spans = %v", got)
	}
}

func TestOutputSkewOnlyHeavyNodesSwitch(t *testing.T) {
	prm := testParams(8)
	// Half the nodes hold one group; the other half hold 2000 groups ≫ M=64.
	rel := workload.OutputSkew(8, 8000, 2000, 93)
	res := run(t, prm, rel, A2P, Options{Trace: true})
	if res.Switched != 4 {
		t.Fatalf("switched = %d nodes, want exactly the 4 group-heavy ones", res.Switched)
	}
	for i, m := range res.Nodes {
		heavy := i >= 4 // OutputSkew gives nodes 0..3 one group each
		if heavy && m.SwitchedAt < 0 {
			t.Errorf("group-heavy node %d never switched", i)
		}
		if !heavy && m.SwitchedAt >= 0 {
			t.Errorf("single-group node %d switched at %d", i, m.SwitchedAt)
		}
	}
}

func TestSamplingWithSampleLargerThanRelation(t *testing.T) {
	prm := testParams(4)
	rel := workload.Uniform(4, 200, 20, 94)
	// Ask for far more sample tuples than exist: every page gets sampled,
	// the decision still fires, and the run completes correctly.
	res := run(t, prm, rel, Samp, Options{SampleTuples: 1_000_000, CrossoverThreshold: 50})
	if !strings.HasPrefix(res.Decision, "2P") {
		t.Errorf("decision = %q for 20 groups under threshold 50", res.Decision)
	}
}

func TestC2PCoordinatorOverflow(t *testing.T) {
	prm := testParams(4)
	prm.HashEntries = 16 // coordinator must spill heavily: 800 groups vs M=16
	res := run(t, prm, workload.Uniform(4, 2000, 800, 95), C2P, Options{})
	if len(res.Groups) != 800 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
}

func TestARepRelayedEndOfPhase(t *testing.T) {
	// A uniform few-group relation: the first node to finish its window
	// triggers, the rest must fall back via the relayed message or their
	// own observation — in all cases every node ends up switched.
	prm := testParams(4)
	res := run(t, prm, workload.Uniform(4, 4000, 3, 96), ARep, Options{})
	if res.Switched != 4 {
		t.Errorf("switched = %d, want all 4", res.Switched)
	}
	// And the answer is still exact (verified inside run).
}

func TestOptionsDefaultsApplied(t *testing.T) {
	prm := testParams(8)
	opt := Options{}.withDefaults(prm)
	if opt.CrossoverThreshold != 800 {
		t.Errorf("CrossoverThreshold = %d, want 100N", opt.CrossoverThreshold)
	}
	if opt.SampleTuples != 8000 {
		t.Errorf("SampleTuples = %d, want 10x threshold", opt.SampleTuples)
	}
	if opt.Seed != 1 {
		t.Errorf("defaults = %+v", opt)
	}
}

func TestBroadcastShipsNCopies(t *testing.T) {
	prm := testParams(4)
	rel := workload.Uniform(4, 2000, 100, 98)
	res := run(t, prm, rel, Bcast, Options{})
	var sent, recv int64
	for _, m := range res.Nodes {
		sent += m.SentRaw
		recv += m.RecvRaw
	}
	if sent != rel.Tuples()*int64(prm.N) {
		t.Errorf("broadcast sent %d raw tuples, want N×|R| = %d", sent, rel.Tuples()*int64(prm.N))
	}
	if recv != sent {
		t.Errorf("received %d of %d broadcast tuples", recv, sent)
	}
	// The N× network bill must make Bcast worse than Rep on the bus.
	rep := run(t, prm, workload.Uniform(4, 2000, 100, 98), Rep, Options{})
	if res.Elapsed <= rep.Elapsed {
		t.Errorf("Bcast (%v) should lose to Rep (%v): that is why the paper dismissed it",
			res.Elapsed, rep.Elapsed)
	}
}

func TestRangePlacementMakesTwoPhaseOptimal(t *testing.T) {
	// When every group is node-local (range placement), the local phase
	// compresses perfectly and 2P ships only |G| partials — it must beat
	// Rep handily even at a group count where round-robin 2P struggles.
	prm := testParams(4)
	prm.Network = params.SharedBusNet
	prm.MsgPageBytes = 2048
	prm.MsgLat = 16400 * des.Microsecond // ~1 Mbit/s: the wire dominates
	prm.HashEntries = 2000
	mk := func() *workload.Relation { return workload.RangePartitioned(4, 40_000, 1500, 99) }
	twoP := run(t, prm, mk(), TwoPhase, Options{})
	rep := run(t, prm, mk(), Rep, Options{})
	if twoP.Elapsed >= rep.Elapsed {
		t.Errorf("range placement: 2P (%v) should beat Rep (%v)", twoP.Elapsed, rep.Elapsed)
	}
	// The structural reason: perfect local compression means 2P ships a
	// tiny fraction of Rep's bytes.
	if twoP.Net.Bytes*5 > rep.Net.Bytes {
		t.Errorf("2P shipped %d bytes vs Rep %d; expected ≥5x compression", twoP.Net.Bytes, rep.Net.Bytes)
	}
	// And A-2P must not switch: the local tables never fill.
	a2p := run(t, prm, mk(), A2P, Options{})
	if a2p.Switched != 0 {
		t.Errorf("A-2P switched %d nodes under perfectly compressing placement", a2p.Switched)
	}
}

func TestARepEndOfPhaseAfterScanFinished(t *testing.T) {
	// Regression: under input skew, the small nodes finish scanning (and
	// close their send sides) long before the big node's end-of-phase
	// broadcast arrives. Reacting to it then — relaying or switching —
	// violated the sender contract and panicked on the closed bus.
	prm := testParams(4)
	prm.Network = params.SharedBusNet
	prm.MsgPageBytes = 2048
	prm.HashEntries = 1000                         // a 500-tuple window, longer than a small node's partition
	rel := workload.InputSkew(4, 4000, 5, 77, 101) // node 0 holds ~96% of tuples
	res := run(t, prm, rel, ARep, Options{})
	if res.Switched == 0 {
		t.Error("the skewed node should still have fallen back")
	}
}

// TestSort2PSpoolsRunsUnderMemoryPressure: with 32-record runs every node
// spools sorted runs to disk, and the answer stays exact (Run verifies it).
func TestSort2PSpoolsRunsUnderMemoryPressure(t *testing.T) {
	prm := testParams(4)
	prm.HashEntries = 32
	res := run(t, prm, workload.Uniform(4, 2000, 800, 17), Sort2P, Options{})
	for i, m := range res.Nodes {
		if m.Spilled == 0 {
			t.Errorf("node %d spooled no run with 32-record memory", i)
		}
	}
}

// TestHashVsSortCostOrdering: with memory for every group, hash
// aggregation beats sort-based aggregation, which still pays n·log n. This
// is the classic result the paper's hash-only treatment assumes.
func TestHashVsSortCostOrdering(t *testing.T) {
	prm := testParams(4)
	prm.HashEntries = 100_000
	rel := workload.Uniform(4, 8000, 400, 19)
	hash := run(t, prm, rel, TwoPhase, Options{})
	sorted := run(t, prm, rel, Sort2P, Options{})
	if hash.Elapsed >= sorted.Elapsed {
		t.Errorf("2P %v should beat Sort-2P %v in memory", hash.Elapsed, sorted.Elapsed)
	}
}

func TestVerifyReportsSmallestBadGroup(t *testing.T) {
	// verify walks the reference in sorted key order, so a result with
	// several wrong groups names the same (smallest) one on every run —
	// map iteration order must not leak into the error message.
	rel := workload.Uniform(2, 400, 50, 9)
	want := rel.Reference()
	bad := make(map[tuple.Key]tuple.AggState, len(want))
	for k, s := range want {
		s.Count++ // corrupt every group
		bad[k] = s
	}
	first := verify(rel, bad)
	if first == nil {
		t.Fatal("verify accepted a corrupted result")
	}
	for i := 0; i < 20; i++ {
		if err := verify(rel, bad); err == nil || err.Error() != first.Error() {
			t.Fatalf("verify error varies across runs: %q vs %q", first, err)
		}
	}
	var minKey tuple.Key
	found := false
	for k := range want {
		if !found || k < minKey {
			found, minKey = true, k
		}
	}
	if wantMsg := fmt.Sprintf("group %d state", minKey); !strings.Contains(first.Error(), wantMsg) {
		t.Fatalf("verify error %q does not name the smallest corrupted group (%d)", first, minKey)
	}
}
