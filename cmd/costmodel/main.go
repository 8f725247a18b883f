// Command costmodel prints the analytical model's per-component breakdown
// for one algorithm at one group count. The paper's Figures 1–7 come from
// aggbench (-experiment fig1 … fig7).
//
// Usage:
//
//	costmodel -alg rep -groups 1e6
//	costmodel -alg 2p -groups 500 -net ethernet -nodes 8
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"parallelagg"
)

func main() {
	var (
		algName = flag.String("alg", "a2p", "algorithm: c2p, 2p, rep, samp, a2p, arep")
		groups  = flag.Float64("groups", 1000, "number of groups")
		nodes   = flag.Int("nodes", 32, "cluster size")
		netKind = flag.String("net", "fast", "interconnect: fast or ethernet")
	)
	flag.Parse()

	prm := parallelagg.DefaultParams()
	prm.N = *nodes
	if *netKind == "ethernet" {
		prm.Network = parallelagg.SharedBusNet
	}
	m := parallelagg.NewCostModel(prm)
	s := *groups / float64(prm.Tuples)
	var b parallelagg.CostBreakdown
	switch strings.ToLower(*algName) {
	case "c2p":
		b = m.C2P(s)
	case "2p":
		b = m.TwoPhase(s)
	case "rep":
		b = m.Rep(s)
	case "samp":
		b = m.Samp(s, 10*100*prm.N)
	case "a2p":
		b = m.A2P(s)
	case "arep":
		b = m.ARep(s)
	default:
		fmt.Fprintf(os.Stderr, "costmodel: unknown algorithm %q\n", *algName)
		os.Exit(2)
	}
	fmt.Printf("algorithm   %s\n", *algName)
	fmt.Printf("nodes       %d  network %v\n", prm.N, prm.Network)
	fmt.Printf("groups      %.0f  (selectivity %.3g over %d tuples)\n", *groups, s, prm.Tuples)
	fmt.Printf("scan I/O    %8.2f s\n", b.ScanIO)
	fmt.Printf("overflow I/O%8.2f s\n", b.OverflowIO)
	fmt.Printf("result I/O  %8.2f s\n", b.ResultIO)
	fmt.Printf("CPU         %8.2f s\n", b.CPU)
	fmt.Printf("network     %8.2f s\n", b.Net)
	fmt.Printf("TOTAL       %8.2f s\n", b.Total())
}
