package live

import (
	"runtime"
	"testing"

	"parallelagg/internal/workload"
)

// BenchmarkAggregateA2P runs the benchmark spine's three A-2P workloads
// (bench/workloads.go) at 1/8 scale, the table bound scaled with the rows so
// each keeps its regime: few (1,024 groups, no table fills), many
// (selectivity 0.5, every worker switches, the merge sides hold 2^15 groups)
// and skew (OutputSkew: half the workers hold one group and never switch,
// the other half switch and decline the projection). Every iteration is one
// AggregatePartitioned call on the same input. rows/s and B/row are the
// numbers to read; compare two commits by alternating their test binaries.
func BenchmarkAggregateA2P(b *testing.B) {
	const bound = 16384 / 8
	p := max(2, runtime.GOMAXPROCS(0))
	shapes := []struct {
		name string
		gen  func() *workload.Relation
	}{
		{"few", func() *workload.Relation { return workload.Uniform(p, 1<<19, 1024, 1) }},
		{"many", func() *workload.Relation { return workload.Uniform(p, 1<<16, 1<<15, 1) }},
		{"skew", func() *workload.Relation { return workload.OutputSkew(p, 1<<17, 1<<14+int64(p/2), 1) }},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			rel := s.gen()
			cfg := Config{Workers: p, TableEntries: bound}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := AggregatePartitioned(cfg, rel.PerNode, AdaptiveTwoPhase); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			rows := float64(b.N) * float64(rel.Tuples())
			b.ReportMetric(rows/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/rows, "B/row")
		})
	}
}
