package main

import (
	"fmt"
	"regexp"
)

// metricDef names one metric. The names are normative: BENCHMARK.json
// lists exactly these (TestCatalogueMatchesBenchmarkJSON), and later
// issues cite them verbatim.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the old median by which an end-to-end metric
	// may worsen before compare calls it a regression. Per-layer metrics
	// are diagnostics and have none.
	Bound float64
}

var endToEnd = []metricDef{
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"cpu_ns_per_row", "ns", "lower", 0.25},
	{"alloc_bytes_per_row", "B", "lower", 0.05},
	{"allocs_per_krow", "count", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// liveAlgs and distAlgs are the line-ups, in the engines' own order; the
// names are the paper's abbreviations (Algorithm.String()).
var (
	liveAlgNames = []string{"2P", "Rep", "A-2P", "A-Rep", "Shared", "A-Shared"}
	distAlgNames = []string{"2P", "Rep", "A-2P", "A-Rep"}
)

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lo("tuple.hash_ns_per_key", "ns"),
		lo("tuple.batch_append_ns_per_row", "ns"),
		lo("tuple.codec_raw_ns_per_row", "ns"),
		lo("tuple.codec_partial_ns_per_row", "ns"),
		lo("tuple.codec_rawcol_ns_per_row", "ns"),
		lo("tuple.codec_partialcol_ns_per_row", "ns"),

		lo("aggtable.update_ns_per_row", "ns"),
		lo("aggtable.update_batch_ns_per_row", "ns"),
		lo("aggtable.update_presized_ns_per_row", "ns"),
		lo("aggtable.merge_batch_ns_per_partial", "ns"),
		lo("aggtable.drain_ns_per_group", "ns"),
		lo("aggtable.refused_permille", "permille"),
		lo("aggtable.slots_per_group", "ratio"),
		lo("aggtable.shared_update_batch_ns_per_row", "ns"),
		lo("aggtable.shared_contended_permille", "permille"),

		lo("live.scan_ms_max", "ms"),
		lo("live.merge_ms_max", "ms"),
		lo("live.merge_tail_ms", "ms"),
		lo("live.scan_skew", "ratio"),
		lo("live.startup_ms", "ms"),
		lo("live.assembly_ms", "ms"),
		lo("live.switched_workers", "count"),
		lo("live.routed_share", "ratio"),
		lo("live.partials_per_group", "ratio"),
		lo("live.spilled_share", "ratio"),
	}
	for _, a := range liveAlgNames {
		defs = append(defs, hi("live.rows_per_s."+a, "rows/s"))
	}
	defs = append(defs,
		hi("live.a2p_vs_best_fixed", "ratio"),

		lo("dist.wire_bytes_per_row", "B"),
		lo("dist.frames_per_krow", "count"),
		lo("dist.dial_ms_max", "ms"),
		lo("dist.scan_ms_max", "ms"),
		lo("dist.merge_ms_max", "ms"),
		lo("dist.combine_ms", "ms"),
	)
	for _, a := range distAlgNames {
		defs = append(defs, hi("dist.rows_per_s."+a, "rows/s"))
	}
	return append(defs,
		hi("dist.tolerant_vs_failfast", "ratio"),
		hi("dist.vs_live", "ratio"),

		lo("query.engine_passes", "count"),
		lo("query.engine_ms", "ms"),
		lo("query.self_ms", "ms"),
		lo("query.self_share", "ratio"),

		lo("workload.gen_s", "s"),

		hi("run.rows_per_s_raw", "rows/s"),
		lo("run.ref_slowdown", "ratio"),
		lo("run.steal_share", "ratio"),
		lo("run.query_ms_p90", "ms"),
		lo("run.iqr_share", "ratio"),
		lo("run.peak_rss_mb", "MB"),
		lo("bench.trace_overhead_share", "ratio"),
	)
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validateCatalogue rejects a catalogue the benchmark contract would:
// malformed or duplicate names.
func validateCatalogue(defs ...[]metricDef) error {
	seen := make(map[string]bool)
	for _, list := range defs {
		for _, d := range list {
			if !metricNameRE.MatchString(d.Name) {
				return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", d.Name)
			}
			if seen[d.Name] {
				return fmt.Errorf("metric name %q used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	return nil
}
