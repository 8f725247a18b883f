// Command aggsim runs one parallel aggregation algorithm over one
// synthetic workload on the simulated cluster and prints the timing and
// per-node execution metrics — the tool for poking at a single
// configuration.
//
// Usage:
//
//	aggsim [-alg a2p] [-workload uniform] [-nodes 8] [-tuples 200000]
//	       [-groups 1000] [-mem 10000] [-net ethernet|fast] [-seed 1]
//	       [-v] [-dump]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"parallelagg"
)

var algByName = map[string]parallelagg.Algorithm{
	"c2p":    parallelagg.CentralizedTwoPhase,
	"2p":     parallelagg.TwoPhase,
	"opt2p":  parallelagg.OptimizedTwoPhase,
	"rep":    parallelagg.Repartitioning,
	"samp":   parallelagg.Sampling,
	"a2p":    parallelagg.AdaptiveTwoPhase,
	"arep":   parallelagg.AdaptiveRepartitioning,
	"bcast":  parallelagg.Broadcast,
	"sort2p": parallelagg.SortTwoPhase,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its edges injected, so tests can drive the whole tool
// and compare byte-for-byte output across same-seed runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aggsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algName   = fs.String("alg", "a2p", "algorithm: c2p, 2p, opt2p, rep, samp, a2p, arep, bcast, sort2p")
		wl        = fs.String("workload", "uniform", "workload: uniform, range, dupelim, inputskew, outputskew, zipf, tpcd-q1, tpcd-q3")
		nodes     = fs.Int("nodes", 8, "cluster size")
		tuples    = fs.Int64("tuples", 200_000, "relation cardinality")
		groups    = fs.Int64("groups", 1000, "number of distinct groups")
		mem       = fs.Int("mem", 10_000, "hash table capacity M (entries)")
		netKind   = fs.String("net", "ethernet", "interconnect: ethernet (shared bus) or fast (latency-only)")
		seed      = fs.Int64("seed", 1, "generator seed")
		verbose   = fs.Bool("v", false, "print per-node metrics")
		showTrace = fs.Bool("trace", false, "print the execution timeline")
		analyze   = fs.Bool("analyze", false, "print the workload shape analysis")
		dump      = fs.Bool("dump", false, "print every group's aggregate state, sorted by key")
		metrics   = fs.Bool("metrics", false, "print the run's metrics registry in Prometheus text format (byte-identical across same-seed runs)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	alg, ok := algByName[strings.ToLower(*algName)]
	if !ok {
		fmt.Fprintf(stderr, "aggsim: unknown algorithm %q\n", *algName)
		return 2
	}

	prm := parallelagg.ImplementationParams()
	prm.N = *nodes
	prm.Tuples = *tuples
	prm.HashEntries = *mem
	switch *netKind {
	case "ethernet":
		prm.Network = parallelagg.SharedBusNet
	case "fast":
		prm.Network = parallelagg.LatencyNet
	default:
		fmt.Fprintf(stderr, "aggsim: unknown network %q\n", *netKind)
		return 2
	}

	var rel *parallelagg.Relation
	switch *wl {
	case "uniform":
		rel = parallelagg.Uniform(prm.N, *tuples, *groups, *seed)
	case "range":
		rel = parallelagg.RangePartitioned(prm.N, *tuples, *groups, *seed)
	case "dupelim":
		rel = parallelagg.DupElim(prm.N, *tuples, 2, *seed)
	case "inputskew":
		rel = parallelagg.InputSkew(prm.N, *tuples, *groups, 4.0, *seed)
	case "outputskew":
		rel = parallelagg.OutputSkew(prm.N, *tuples, *groups, *seed)
	case "zipf":
		rel = parallelagg.Zipf(prm.N, *tuples, *groups, 1.5, *seed)
	case "tpcd-q1":
		rel = parallelagg.TPCD(prm.N, *tuples, parallelagg.TPCDQ1, *seed)
	case "tpcd-q3":
		rel = parallelagg.TPCD(prm.N, *tuples, parallelagg.TPCDQ3, *seed)
	default:
		fmt.Fprintf(stderr, "aggsim: unknown workload %q\n", *wl)
		return 2
	}

	if *analyze {
		fmt.Fprintln(stdout, "workload analysis:")
		if err := rel.Analyze().Render(stdout); err != nil {
			fmt.Fprintf(stderr, "aggsim: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout)
	}

	var reg *parallelagg.MetricsRegistry
	if *metrics {
		reg = parallelagg.NewMetricsRegistry()
	}
	res, err := parallelagg.Aggregate(prm, rel, alg, parallelagg.Options{Seed: *seed, Trace: *showTrace, Obs: reg})
	if err != nil {
		fmt.Fprintf(stderr, "aggsim: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "algorithm    %v\n", res.Algorithm)
	fmt.Fprintf(stdout, "workload     %s (%d tuples, %d groups, %d nodes, %v net)\n",
		rel.Name, rel.Tuples(), rel.Groups, prm.N, prm.Network)
	fmt.Fprintf(stdout, "elapsed      %v (simulated)\n", res.Elapsed)
	fmt.Fprintf(stdout, "result       %d groups (verified against sequential reference)\n", len(res.Groups))
	if res.Decision != "" {
		fmt.Fprintf(stdout, "decision     %s\n", res.Decision)
	}
	if res.Switched > 0 {
		fmt.Fprintf(stdout, "switched     %d node(s) changed strategy mid-query\n", res.Switched)
	}
	fmt.Fprintf(stdout, "network      %d messages, %d pages, %d bytes\n",
		res.Net.Messages, res.Net.Pages, res.Net.Bytes)

	if *verbose {
		elapsed := res.Elapsed.Seconds()
		fmt.Fprintln(stdout, "\nnode  scanned  sentRaw  sentPart  recvRaw  recvPart  spilled  groups  switched@  finish  cpu%  disk%")
		for i, m := range res.Nodes {
			sw := "-"
			if m.SwitchedAt >= 0 {
				sw = fmt.Sprint(m.SwitchedAt)
			}
			fmt.Fprintf(stdout, "%4d  %7d  %7d  %8d  %7d  %8d  %7d  %6d  %9s  %6v  %3.0f  %4.0f\n",
				i, m.Scanned, m.SentRaw, m.SentPartials, m.RecvRaw, m.RecvPartials,
				m.Spilled, m.GroupsOut, sw, parallelagg.Duration(m.Finish),
				100*m.CPUBusy.Seconds()/elapsed, 100*m.DiskBusy.Seconds()/elapsed)
		}
		if res.Net.BusBusy > 0 {
			fmt.Fprintf(stdout, "\nshared bus utilization: %.0f%% of the %.2fs query\n",
				100*res.Net.BusBusy.Seconds()/elapsed, elapsed)
		}
	}
	if *dump {
		// Group state lives in a map; materialize and sort the keys so the
		// dump is byte-identical across same-seed runs.
		fmt.Fprintln(stdout, "\ngroups (sorted by key):")
		keys := make([]parallelagg.Key, 0, len(res.Groups))
		for k := range res.Groups {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			fmt.Fprintf(stdout, "%d %v\n", k, res.Groups[k])
		}
	}
	if *showTrace {
		fmt.Fprintln(stdout, "\nexecution timeline:")
		if err := res.Trace.Render(stdout); err != nil {
			fmt.Fprintf(stderr, "aggsim: %v\n", err)
			return 1
		}
	}
	if *metrics {
		fmt.Fprintln(stdout, "\nmetrics:")
		if _, err := stdout.Write(reg.Snapshot()); err != nil {
			fmt.Fprintf(stderr, "aggsim: %v\n", err)
			return 1
		}
	}
	return 0
}
