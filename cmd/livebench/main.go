// Command livebench measures the REAL parallel aggregation engine on the
// host machine: wall-clock time and speedup over a sequential fold for
// each algorithm and worker count. Unlike aggbench (which reports
// simulated time), these numbers depend on your hardware.
//
// Usage:
//
//	livebench [-tuples 4000000] [-groups 100000] [-workers 0]
//	          [-mem 0] [-runs 3] [-metrics-addr ""]
//	          [-zipf 0]
//
// With -zipf s (s > 1) the keys follow a Zipf distribution over -groups
// keys (internal/workload.Zipf, the generator behind the benchmark's
// shared_hot: -tuples 4194304 -groups 8192 -zipf 1.2 -mem 16384) instead of
// the default round-robin, and under every row a second line gives, for the
// two shared algorithms, rows/s and the share of the input their workers'
// front tables absorbed without reaching the shared table.
//
// With -metrics-addr, the process serves its metrics registry over HTTP
// for the whole benchmark (Prometheus text on /metrics, JSON on
// /metrics.json, pprof under /debug/pprof/); every timed run adds to
// the same registry, and -metrics-linger keeps the endpoint up after
// the table prints so the final counters can be scraped.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"parallelagg"
	"parallelagg/internal/workload"
	"parallelagg/live"
)

func main() {
	var (
		tuples  = flag.Int64("tuples", 4_000_000, "input cardinality")
		groups  = flag.Int64("groups", 100_000, "distinct group count")
		workers = flag.Int("workers", 0, "max workers (0 = GOMAXPROCS)")
		mem     = flag.Int("mem", 0, "per-worker hash table bound (0 = unbounded)")
		runs    = flag.Int("runs", 3, "timed repetitions (best is reported)")
		zipf    = flag.Float64("zipf", 0, "Zipf parameter of the key distribution (> 1); 0 = every group equally often")

		metricsAddr   = flag.String("metrics-addr", "", "serve Prometheus text (/metrics), JSON (/metrics.json) and pprof on this address; empty disables")
		metricsLinger = flag.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after the benchmark completes")
	)
	flag.Parse()

	var reg *parallelagg.MetricsRegistry
	if *metricsAddr != "" {
		reg = parallelagg.NewMetricsRegistry()
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "livebench: metrics listener:", err)
			os.Exit(1)
		}
		srv := parallelagg.ServeMetrics(mln, reg)
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics\n\n", mln.Addr())
	}

	var in []live.Tuple
	if *zipf != 0 {
		if *zipf <= 1 {
			fmt.Fprintln(os.Stderr, "livebench: -zipf must be greater than 1")
			os.Exit(2)
		}
		rel := workload.Zipf(1, *tuples, *groups, *zipf, 1)
		in, *groups = rel.PerNode[0], rel.Groups // the distinct keys actually drawn
	} else {
		in = make([]live.Tuple, *tuples)
		for i := range in {
			k := live.Key(uint64(i*2654435761) % uint64(*groups))
			in[i] = live.Tuple{Key: k, Val: int64(i % 1000)}
		}
	}

	best := func(f func() error) (time.Duration, error) {
		b := time.Duration(1<<63 - 1)
		for i := 0; i < *runs; i++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			if el := time.Since(start); el < b {
				b = el
			}
		}
		return b, nil
	}

	seq, err := best(func() error {
		ref := make(map[live.Key]live.AggState, *groups)
		for _, t := range in {
			if s, ok := ref[t.Key]; ok {
				s.Update(t.Val)
				ref[t.Key] = s
			} else {
				ref[t.Key] = live.NewState(t.Val)
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	fmt.Printf("sequential fold: %v for %d tuples, %d groups\n\n", seq.Round(time.Millisecond), *tuples, *groups)

	maxW := *workers
	if maxW <= 0 {
		maxW = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("%-8s", "workers")
	for _, alg := range live.Algorithms() {
		fmt.Printf("  %-16v", alg)
	}
	fmt.Println()
	for w := 1; w <= maxW; w *= 2 {
		fmt.Printf("%-8d", w)
		fronts := "" // the shared algorithms' second line
		for _, alg := range live.Algorithms() {
			cfg := live.Config{
				Workers:      w,
				TableEntries: *mem,
				Obs:          reg,
			}
			var absorbed int64
			el, err := best(func() error {
				res, err := live.Aggregate(cfg, in, alg)
				if err != nil {
					return err
				}
				if int64(len(res.Groups)) != *groups {
					return fmt.Errorf("%v produced %d groups, want %d", alg, len(res.Groups), *groups)
				}
				absorbed = 0
				for _, m := range res.PerWorker {
					absorbed += m.Absorbed
				}
				return nil
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "\nlivebench:", err)
				os.Exit(1)
			}
			fmt.Printf("  %-8v x%-6.2f", el.Round(time.Millisecond), seq.Seconds()/el.Seconds())
			if alg == live.Shared || alg == live.AdaptiveShared {
				fronts += fmt.Sprintf("  %v %.1f M rows/s, fronts absorbed %.1f%%", alg,
					float64(*tuples)/el.Seconds()/1e6, 100*float64(absorbed)/float64(*tuples))
			}
		}
		fmt.Printf("\n%-8s%s\n", "", fronts)
	}
	if *metricsLinger > 0 {
		time.Sleep(*metricsLinger)
	}
}
