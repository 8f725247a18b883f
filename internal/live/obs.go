package live

import (
	"strconv"
	"time"

	"parallelagg/internal/obs"
)

// publishObs exports one run's per-worker activity and whole-run
// throughput to the registry. No-op when r is nil.
func publishObs(r *obs.Registry, metrics []WorkerMetrics, elapsed time.Duration) {
	if r == nil {
		return
	}
	scanned := r.CounterVec("live_rows_total", "tuples processed by each worker's scan side", "worker")
	routed := r.CounterVec("live_routed_total", "raw tuples shipped between workers", "worker")
	partials := r.CounterVec("live_partials_sent_total", "partial aggregates shipped between workers", "worker")
	spilled := r.CounterVec("live_spilled_total", "tuples that left the bounded table", "worker")
	absorbed := r.CounterVec("live_front_absorbed_total", "tuples a shared-mode front folded without reaching the shared table", "worker")
	groups := r.CounterVec("live_groups_total", "result groups produced by each merge side", "worker")
	fanIn := r.GaugeVec("live_merge_fan_in", "distinct scan sides that fed each merge side", "worker")
	switches := r.CounterVec("live_switch_total", "adaptive strategy switches fired", "worker")
	occ := r.GaugeVec("live_table_occupancy_permille", "high-water fill of each worker's aggregation table per 1000", "worker")

	var rows int64
	for i := range metrics {
		m := &metrics[i]
		w := strconv.Itoa(i)
		scanned.With(w).Add(m.Scanned)
		routed.With(w).Add(m.Routed)
		partials.With(w).Add(m.PartialsSent)
		spilled.With(w).Add(m.Spilled)
		absorbed.With(w).Add(m.Absorbed)
		groups.With(w).Add(m.GroupsOut)
		fanIn.With(w).Set(m.FanIn)
		occ.With(w).Set(m.TableOcc)
		if m.Switched {
			switches.With(w).Inc()
		}
		rows += m.Scanned
	}
	r.Counter("live_runs_total", "aggregations executed").Inc()
	r.Counter("live_elapsed_ns_total", "wall time spent aggregating").Add(int64(elapsed))
	if ns := int64(elapsed); ns > 0 {
		r.Gauge("live_rows_per_sec", "scan throughput of the most recent run").
			Set(rows * int64(time.Second) / ns)
	}
}
