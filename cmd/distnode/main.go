// Command distnode runs ONE node of a real distributed aggregation over
// TCP — the modern version of the paper's PVM workstation cluster. Start
// one process per node with the same -addrs list and -seed; each node
// deterministically generates its own partition of the shared relation, so
// no data distribution step is needed.
//
// A two-node cluster on one machine:
//
//	distnode -id 0 -addrs 127.0.0.1:7101,127.0.0.1:7102 &
//	distnode -id 1 -addrs 127.0.0.1:7101,127.0.0.1:7102
//
// Across machines, use real host addresses and start one process per host.
//
// With -metrics-addr, the node serves its metrics registry over HTTP
// while the query runs: Prometheus text on /metrics, JSON on
// /metrics.json, and the pprof handlers under /debug/pprof/. Use
// -metrics-linger to keep the endpoint up after the query completes so
// a final scrape can collect the end-of-run counters.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"parallelagg"
	"parallelagg/internal/dist"
	"parallelagg/internal/faultnet"
	"parallelagg/internal/obs"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
)

var algByName = map[string]dist.Algorithm{
	"2p":   dist.TwoPhase,
	"rep":  dist.Repartitioning,
	"a2p":  dist.AdaptiveTwoPhase,
	"arep": dist.AdaptiveRepartitioning,
}

// metricsReady, when non-nil, is called with the metrics listener's
// bound address once the endpoint is serving. Tests hook it to learn
// the port behind -metrics-addr 127.0.0.1:0.
var metricsReady func(addr string)

// listen binds the node's own address. Tests hook it to hand run the
// listener that reserved the node's port, so the port is never released
// between its reservation and the node's start.
var listen = net.Listen

// Exit codes. 0 is success and 2 a usage error, per convention; local
// (non-protocol) failures keep the generic 1. Protocol failures get a
// distinct code per phase so orchestrators and chaos harnesses can
// tell a refused dial from a mid-merge peer loss without parsing text.
const (
	exitOK        = 0
	exitLocal     = 1
	exitUsage     = 2
	exitDial      = 10
	exitHello     = 11
	exitAccept    = 12
	exitRead      = 13
	exitWrite     = 14
	exitMerge     = 15
	exitHeartbeat = 16
	exitEvicted   = 17
)

// exitCode maps a RunNode error to its exit code. Eviction wins over
// the phase it was reported in: a node voted out of the cluster is a
// different operational event from a node that saw a peer fail.
func exitCode(err error) int {
	if errors.Is(err, dist.ErrEvicted) {
		return exitEvicted
	}
	var ne *dist.NodeError
	if !errors.As(err, &ne) {
		return exitLocal
	}
	switch ne.Phase {
	case dist.PhaseDial:
		return exitDial
	case dist.PhaseHello:
		return exitHello
	case dist.PhaseAccept:
		return exitAccept
	case dist.PhaseRead:
		return exitRead
	case dist.PhaseWrite:
		return exitWrite
	case dist.PhaseMerge:
		return exitMerge
	case dist.PhaseHeartbeat:
		return exitHeartbeat
	}
	return exitLocal
}

// errorRecord is the machine-readable failure report emitted on stderr
// under -json-errors: one line, one JSON object, then exit.
type errorRecord struct {
	Node    int    `json:"node"`
	Peer    int    `json:"peer"`
	Phase   string `json:"phase"`
	Err     string `json:"err"`
	Evicted bool   `json:"evicted"`
}

func reportError(stderr io.Writer, jsonErrors bool, node int, err error) {
	var ne *dist.NodeError
	if jsonErrors {
		rec := errorRecord{Node: node, Peer: -1, Err: err.Error(), Evicted: errors.Is(err, dist.ErrEvicted)}
		if errors.As(err, &ne) {
			rec.Peer = ne.Peer
			rec.Phase = string(ne.Phase)
		}
		json.NewEncoder(stderr).Encode(rec)
		return
	}
	if errors.As(err, &ne) {
		fmt.Fprintf(stderr, "distnode: peer failure in phase %q (peer %d): %v\n", ne.Phase, ne.Peer, err)
	} else {
		fmt.Fprintf(stderr, "distnode: %v\n", err)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("distnode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id      = fs.Int("id", 0, "this node's index in -addrs")
		addrs   = fs.String("addrs", "", "comma-separated listen addresses, one per node")
		algName = fs.String("alg", "a2p", "algorithm: 2p, rep, a2p, arep")
		tuples  = fs.Int64("tuples", 1_000_000, "total relation cardinality (shared)")
		groups  = fs.Int64("groups", 10_000, "distinct groups (shared)")
		seed    = fs.Int64("seed", 1, "generator seed (shared)")
		mem     = fs.Int("mem", 10_000, "local hash table bound (0 = unbounded)")
		show    = fs.Int("show", 3, "result groups to print")

		dialTimeout = fs.Duration("dial-timeout", 5*time.Second, "cluster formation budget (dial retries with backoff + accepts)")
		ioTimeout   = fs.Duration("io-timeout", 30*time.Second, "per-frame read/write deadline; a peer silent longer is failed")
		chaos       = fs.String("chaos", "", "fault-injection spec, e.g. latency=2ms,jitter=1ms,reset=0.01,hang=0.01,acceptfail=0.1,seed=42")

		tolerate   = fs.Bool("tolerate", false, "survive peer failures: node 0 supervises liveness and reassigns dead peers' partitions")
		heartbeat  = fs.Duration("heartbeat", 0, "liveness beacon interval in tolerant mode (0 = default 250ms)")
		speculate  = fs.Int("speculate", 0, "straggler factor k: re-ship a peer lagging k x behind the median (0 disables)")
		jsonErrors = fs.Bool("json-errors", false, "report failures as one JSON object per line on stderr")

		metricsAddr   = fs.String("metrics-addr", "", "serve Prometheus text (/metrics), JSON (/metrics.json) and pprof on this address; empty disables")
		metricsLinger = fs.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after the query completes")
		showTrace     = fs.Bool("trace", false, "print the node's dial/scan/merge span timeline")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	list := strings.Split(*addrs, ",")
	if *addrs == "" || len(list) == 0 {
		fmt.Fprintln(stderr, "distnode: -addrs is required")
		return 2
	}
	alg, ok := algByName[strings.ToLower(*algName)]
	if !ok {
		fmt.Fprintf(stderr, "distnode: unknown algorithm %q\n", *algName)
		return 2
	}
	if *id < 0 || *id >= len(list) {
		fmt.Fprintf(stderr, "distnode: -id %d out of range for %d addresses\n", *id, len(list))
		return 2
	}

	cfg := dist.Config{
		ID:              *id,
		Addrs:           list,
		Algorithm:       alg,
		TableEntries:    *mem,
		DialTimeout:     *dialTimeout,
		IOTimeout:       *ioTimeout,
		Tolerate:        *tolerate,
		HeartbeatEvery:  *heartbeat,
		SpeculateFactor: *speculate,
	}
	if *chaos != "" {
		fc, err := faultnet.ParseSpec(*chaos)
		if err != nil {
			fmt.Fprintf(stderr, "distnode: %v\n", err)
			return 2
		}
		inj := faultnet.New(fc)
		cfg.Dial = inj.Dialer(nil)
		cfg.WrapListener = inj.Listener
		fmt.Fprintf(stdout, "node %d chaos: %s\n", *id, *chaos)
	}

	start := time.Now()
	var tracer *trace.Tracer
	if *showTrace || *metricsAddr != "" {
		tracer = trace.NewTracer(func() int64 { return time.Since(start).Nanoseconds() })
		cfg.Tracer = tracer
	}
	if *metricsAddr != "" {
		reg := obs.New()
		cfg.Obs = reg
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(stderr, "distnode: metrics listener: %v\n", err)
			return 1
		}
		srv := obs.Serve(mln, reg)
		defer srv.Close()
		fmt.Fprintf(stdout, "node %d metrics on http://%s/metrics\n", *id, mln.Addr())
		if metricsReady != nil {
			metricsReady(mln.Addr().String())
		}
	}

	// Every node generates the same relation and takes its partition.
	rel := parallelagg.Uniform(len(list), *tuples, *groups, *seed)
	if *tolerate {
		// Recovery needs any node's partition, not just ours: a survivor
		// re-executes a dead peer's scan from the shared-seed generator.
		cfg.PartitionSource = func(node int) []tuple.Tuple {
			if node < 0 || node >= len(rel.PerNode) {
				return nil
			}
			return rel.PerNode[node]
		}
	}

	ln, err := listen("tcp", list[*id])
	if err != nil {
		reportError(stderr, *jsonErrors, *id, err)
		return exitLocal
	}
	fmt.Fprintf(stdout, "node %d listening on %s, %d tuples, algorithm %v\n",
		*id, list[*id], len(rel.PerNode[*id]), alg)

	res, err := dist.RunNode(ln, cfg, rel.PerNode[*id])
	if err != nil {
		reportError(stderr, *jsonErrors, *id, err)
		return exitCode(err)
	}
	fmt.Fprintf(stdout, "node %d done in %v: owns %d groups", *id, time.Since(start).Round(time.Millisecond), len(res.Groups))
	if res.Switched {
		fmt.Fprintf(stdout, " (switched to repartitioning mid-query)")
	}
	if len(res.DeadPeers) > 0 {
		fmt.Fprintf(stdout, " (survived dead peers %v)", res.DeadPeers)
	}
	fmt.Fprintln(stdout)

	keys := make([]parallelagg.Key, 0, len(res.Groups))
	for k := range res.Groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, k := range keys {
		if i >= *show {
			break
		}
		s := res.Groups[k]
		fmt.Fprintf(stdout, "  group %d: count=%d sum=%d min=%d max=%d\n", k, s.Count, s.Sum, s.Min, s.Max)
	}
	if *showTrace && tracer != nil {
		tracer.Render(stdout)
	}
	if *metricsLinger > 0 {
		time.Sleep(*metricsLinger)
	}
	return 0
}
