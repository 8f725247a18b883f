package main

import (
	"fmt"
	"io"
	"sort"
)

// verdict classifies cur, the new run, against old for one end-to-end
// metric. A metric whose spread (workloadResult.Spread) on either side is
// wider than its bound is unresolved, never same: the run cannot tell a
// change that size from noise. Otherwise worse and better are moves beyond
// the bound in the metric's own direction.
func verdict(d metricDef, old, cur, oldSpread, curSpread float64) string {
	if oldSpread > d.Bound || curSpread > d.Bound {
		return "unresolved"
	}
	worsening := (cur - old) / old
	if d.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > d.Bound:
		return "worse"
	case worsening < -d.Bound:
		return "better"
	}
	return "same"
}

// compare prints, per workload and end-to-end metric, both medians, the
// ratio new÷old and the verdict. It reports whether the comparison passes:
// no metric worse and no failed_share higher — and, under strict (the A/A
// self-check), every metric same.
func compare(w io.Writer, old, cur *suiteResult, strict bool) bool {
	if old.Env.P != cur.Env.P || old.Env.Scale != cur.Env.Scale || old.Env.Seconds != cur.Env.Seconds {
		fmt.Fprintf(w, "warning: runs differ in P (%d, %d), scale (%d, %d) or seconds (%g, %g); results are comparable only when all are equal\n",
			old.Env.P, cur.Env.P, old.Env.Scale, cur.Env.Scale, old.Env.Seconds, cur.Env.Seconds)
	}
	names := make([]string, 0, len(cur.Workloads))
	for name := range cur.Workloads {
		if old.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	pass := len(names) > 0
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s  %s\n", "workload", "metric", "old", "new", "new/old", "verdict")
	for _, name := range names {
		o, n := old.Workloads[name], cur.Workloads[name]
		for _, d := range endToEnd {
			ov, nv := o.EndToEnd[d.Name].Value, n.EndToEnd[d.Name].Value
			v := verdict(d, ov, nv, o.Spread[d.Name], n.Spread[d.Name])
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %9.4f  %s\n", name, d.Name, ov, nv, nv/ov, v)
			if v == "worse" || (strict && v != "same") {
				pass = false
			}
		}
		v := "same"
		if n.FailedShare > o.FailedShare {
			v, pass = "worse", false
		}
		fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %9s  %s\n", name, "failed_share", o.FailedShare, n.FailedShare, "-", v)
	}
	return pass
}
