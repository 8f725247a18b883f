// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each benchmark reports, besides the usual wall-clock numbers,
// a "sim-s" metric: the simulated (virtual) execution time that the
// corresponding paper figure plots.
//
// Figures 1–7 are analytical-model sweeps; Figures 8–9 execute the real
// algorithms on the discrete-event cluster at a reduced scale that
// preserves the paper's data-to-memory ratio.
package parallelagg_test

import (
	"fmt"
	"parallelagg/live"
	"testing"

	"parallelagg"
)

// benchScale keeps the simulated figures fast under `go test -bench`.
const benchScale = 0.02

// benchModelFigure sweeps one analytical figure per iteration.
func benchModelFigure(b *testing.B, id string) {
	r := parallelagg.NewExperimentRunner(benchScale, 1)
	var last float64
	for i := 0; i < b.N; i++ {
		e, err := r.Figure(id)
		if err != nil {
			b.Fatal(err)
		}
		s := e.Series[len(e.Series)-1]
		last = s.Points[len(s.Points)-1].Y
	}
	b.ReportMetric(last, "sim-s")
}

// benchSimFigure executes one simulated figure per iteration.
func benchSimFigure(b *testing.B, id string) {
	r := parallelagg.NewExperimentRunner(benchScale, 1)
	var total float64
	for i := 0; i < b.N; i++ {
		e, err := r.Figure(id)
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, s := range e.Series {
			for _, p := range s.Points {
				total += p.Y
			}
		}
	}
	b.ReportMetric(total, "sim-s")
}

// Table 1: the parameter set itself — validation and derived geometry.
func BenchmarkTable1Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prm := parallelagg.DefaultParams()
		if err := prm.Validate(); err != nil {
			b.Fatal(err)
		}
		_ = prm.DiskPages(prm.Tuples)
	}
}

// Figures 1–7: analytical model sweeps.
func BenchmarkFig1Traditional(b *testing.B)        { benchModelFigure(b, "fig1") }
func BenchmarkFig2Pipeline(b *testing.B)           { benchModelFigure(b, "fig2") }
func BenchmarkFig3AdaptiveFastNet(b *testing.B)    { benchModelFigure(b, "fig3") }
func BenchmarkFig4AdaptiveEthernet(b *testing.B)   { benchModelFigure(b, "fig4") }
func BenchmarkFig5ScaleupLowSel(b *testing.B)      { benchModelFigure(b, "fig5") }
func BenchmarkFig6ScaleupHighSel(b *testing.B)     { benchModelFigure(b, "fig6") }
func BenchmarkFig7SampleSizeTradeoff(b *testing.B) { benchModelFigure(b, "fig7") }

// Figures 8–9: the discrete-event cluster implementation.
func BenchmarkFig8Implementation(b *testing.B) { benchSimFigure(b, "fig8") }
func BenchmarkFig9OutputSkew(b *testing.B)     { benchSimFigure(b, "fig9") }

// benchParams is the scaled implementation configuration used by the
// per-algorithm and ablation benchmarks below.
func benchParams() parallelagg.Params {
	prm := parallelagg.ImplementationParams()
	prm.Tuples = 40_000
	prm.HashEntries = 200 // same data:memory ratio as the paper's 2M/10K
	return prm
}

// BenchmarkAlgorithms runs every algorithm over the same mid-selectivity
// workload, reporting simulated seconds per algorithm.
func BenchmarkAlgorithms(b *testing.B) {
	prm := benchParams()
	rel := parallelagg.Uniform(prm.N, prm.Tuples, 2000, 1)
	for _, alg := range parallelagg.Algorithms() {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				res, err := parallelagg.Aggregate(prm, rel, alg, parallelagg.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.Elapsed.Seconds()
			}
			b.ReportMetric(sim, "sim-s")
		})
	}
}

// BenchmarkAlgorithmsSelectivity sweeps every algorithm across the
// selectivity axis the paper's adaptive argument turns on: the number
// of groups as a fraction of the input. Low selectivity keeps every
// table in memory (two-phase territory); high selectivity overflows
// them (repartitioning territory). It runs on the simulator and reports
// simulated seconds; the live engine is measured by `go run ./bench`.
func BenchmarkAlgorithmsSelectivity(b *testing.B) {
	prm := benchParams()
	for _, sel := range []float64{0.001, 0.05, 0.5} {
		groups := int64(sel * float64(prm.Tuples))
		rel := parallelagg.Uniform(prm.N, prm.Tuples, groups, 1)
		for _, alg := range parallelagg.Algorithms() {
			alg := alg
			b.Run(fmt.Sprintf("alg=%v/sel=%v", alg, sel), func(b *testing.B) {
				var sim float64
				for i := 0; i < b.N; i++ {
					res, err := parallelagg.Aggregate(prm, rel, alg, parallelagg.Options{})
					if err != nil {
						b.Fatal(err)
					}
					sim = res.Elapsed.Seconds()
				}
				b.ReportMetric(sim, "sim-s")
			})
		}
	}
}

// Ablation: the A-2P switch trigger. The paper switches exactly at memory
// overflow; this ablation compares against switching earlier (half-full
// table, emulated by shrinking M) and never (plain 2P).
func BenchmarkAblationA2PSwitchTrigger(b *testing.B) {
	base := benchParams()
	rel := parallelagg.Uniform(base.N, base.Tuples, 4000, 2)
	cases := []struct {
		name string
		mem  int
		alg  parallelagg.Algorithm
	}{
		{"at-overflow-M", base.HashEntries, parallelagg.AdaptiveTwoPhase},
		{"early-M/2", base.HashEntries / 2, parallelagg.AdaptiveTwoPhase},
		{"never-plain2P", base.HashEntries, parallelagg.TwoPhase},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			prm := base
			prm.HashEntries = c.mem
			var sim float64
			for i := 0; i < b.N; i++ {
				res, err := parallelagg.Aggregate(prm, rel, c.alg, parallelagg.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.Elapsed.Seconds()
			}
			b.ReportMetric(sim, "sim-s")
		})
	}
}

// Ablation: Graefe's Optimized 2P forwarding against the paper's A-2P
// (Section 3.2's three-point argument) on an overflowing workload.
func BenchmarkAblationOpt2PvsA2P(b *testing.B) {
	prm := benchParams()
	rel := parallelagg.Uniform(prm.N, prm.Tuples, 8000, 3)
	for _, alg := range []parallelagg.Algorithm{
		parallelagg.OptimizedTwoPhase, parallelagg.AdaptiveTwoPhase,
	} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				res, err := parallelagg.Aggregate(prm, rel, alg, parallelagg.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.Elapsed.Seconds()
			}
			b.ReportMetric(sim, "sim-s")
		})
	}
}

// Ablation: the table bound M, which sets A-Rep's window (M/2 tuples a
// node repartitions before it judges whether its groups fit the table).
func BenchmarkAblationARepBound(b *testing.B) {
	prm := benchParams()
	rel := parallelagg.Uniform(prm.N, prm.Tuples, 8, 4) // few groups: fallback pays
	for _, bound := range []int{100, 400, 2000, 8000} {
		prm := prm
		prm.HashEntries = bound
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				res, err := parallelagg.Aggregate(prm, rel, parallelagg.AdaptiveRepartitioning, parallelagg.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.Elapsed.Seconds()
			}
			b.ReportMetric(sim, "sim-s")
		})
	}
}

// Ablation: the Sampling crossover threshold (10×N vs the paper's 100×N)
// on a mid-range workload where the decision flips.
func BenchmarkAblationSamplingThreshold(b *testing.B) {
	prm := benchParams()
	rel := parallelagg.Uniform(prm.N, prm.Tuples, 500, 5)
	for _, mult := range []int{10, 100, 400} {
		mult := mult
		b.Run(fmt.Sprintf("threshold=%dxN", mult), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				res, err := parallelagg.Aggregate(prm, rel, parallelagg.Sampling,
					parallelagg.Options{CrossoverThreshold: mult * prm.N})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.Elapsed.Seconds()
			}
			b.ReportMetric(sim, "sim-s")
		})
	}
}

// BenchmarkLiveEngine measures the REAL (wall-clock) parallel engine: the
// paper's algorithms on actual goroutines, per worker count. Unlike every
// benchmark above, ns/op here is genuine multicore execution time.
func BenchmarkLiveEngine(b *testing.B) {
	const tuples, groups = 1_000_000, 50_000
	in := make([]live.Tuple, tuples)
	for i := range in {
		in[i] = live.Tuple{Key: live.Key(uint64(i*2654435761) % groups), Val: int64(i % 1000)}
	}
	for _, alg := range live.Algorithms() {
		for _, w := range []int{1, 2, 4} {
			alg, w := alg, w
			b.Run(fmt.Sprintf("%v/workers=%d", alg, w), func(b *testing.B) {
				b.SetBytes(tuples * 16)
				for i := 0; i < b.N; i++ {
					res, err := live.Aggregate(live.Config{Workers: w}, in, alg)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Groups) != groups {
						b.Fatalf("got %d groups", len(res.Groups))
					}
				}
			})
		}
	}
}

// Ablation: interconnect sensitivity — every algorithm on the shared-bus
// Ethernet versus the latency-only fast network.
func BenchmarkAblationNetwork(b *testing.B) {
	for _, net := range []struct {
		name string
		kind parallelagg.NetworkKind
	}{{"ethernet", parallelagg.SharedBusNet}, {"fast", parallelagg.LatencyNet}} {
		net := net
		for _, alg := range []parallelagg.Algorithm{parallelagg.TwoPhase, parallelagg.Repartitioning} {
			alg := alg
			b.Run(fmt.Sprintf("%s/%v", net.name, alg), func(b *testing.B) {
				prm := benchParams()
				prm.Network = net.kind
				rel := parallelagg.Uniform(prm.N, prm.Tuples, 2000, 6)
				var sim float64
				for i := 0; i < b.N; i++ {
					res, err := parallelagg.Aggregate(prm, rel, alg, parallelagg.Options{})
					if err != nil {
						b.Fatal(err)
					}
					sim = res.Elapsed.Seconds()
				}
				b.ReportMetric(sim, "sim-s")
			})
		}
	}
}

// Extension experiments as benches, completing the one-bench-per-figure
// rule for the extensions too.
func BenchmarkExtOptimizerSensitivity(b *testing.B) { benchModelFigure(b, "ext-opt") }
func BenchmarkExtHashVsSort(b *testing.B)           { benchSimFigure(b, "ext-sort") }
func BenchmarkExtInputSkew(b *testing.B)            { benchSimFigure(b, "ext-inputskew") }
