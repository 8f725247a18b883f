// Command aggbench regenerates the tables and figures of the paper's
// evaluation section. Figures 1–7 come from the analytical cost models;
// Figures 8–9 from the discrete-event cluster implementation.
//
// Usage:
//
//	aggbench [-experiment fig1|...|fig9|ext-opt|ext-sort|ext-inputskew|ext-bcast|ext-simscaleup|all]
//	         [-scale 0.125] [-seed 1] [-check]
//
// -scale sets the size of the simulated (fig8/fig9) study relative to the
// paper's 2M-tuple cluster run; 1.0 reproduces the full size. -check
// validates each regenerated figure against the paper's qualitative claims
// and exits non-zero on a shape mismatch.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"parallelagg"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to regenerate (fig1..fig9, ext-opt, ext-sort, ext-inputskew, ext-bcast, ext-simscaleup, or all)")
		scale      = flag.Float64("scale", 0.125, "simulated-study scale relative to the paper's 2M tuples")
		seed       = flag.Int64("seed", 1, "workload generator seed")
		check      = flag.Bool("check", false, "validate figure shapes against the paper's claims")
		format     = flag.String("format", "table", "output format: table, csv, or chart")
		record     = flag.String("record", "", "also write all output as markdown to this file")
	)
	flag.Parse()

	r := parallelagg.NewExperimentRunner(*scale, *seed)
	ids := parallelagg.AllExperimentIDs()
	if *experiment != "all" {
		ids = []string{*experiment}
	}
	var rec *os.File
	if *record != "" {
		var err error
		rec, err = os.Create(*record)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aggbench: %v\n", err)
			os.Exit(2)
		}
		defer rec.Close()
		fmt.Fprintf(rec, "# Regenerated experiments (scale %g, seed %d)\n\n", *scale, *seed)
	}
	failed := 0
	for _, id := range ids {
		e, err := r.Figure(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aggbench: %v\n", err)
			os.Exit(2)
		}
		render := e.Render
		switch *format {
		case "csv":
			render = e.RenderCSV
		case "chart":
			render = func(w io.Writer) error { return e.RenderChart(w, 64, 16) }
		}
		if err := render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "aggbench: %v\n", err)
			os.Exit(2)
		}
		if rec != nil {
			if err := e.RenderMarkdown(rec); err != nil {
				fmt.Fprintf(os.Stderr, "aggbench: %v\n", err)
				os.Exit(2)
			}
		}
		if *check {
			if err := parallelagg.CheckExperiment(e); err != nil {
				fmt.Printf("   SHAPE MISMATCH: %v\n", err)
				failed++
			} else {
				fmt.Printf("   shape matches the paper\n")
			}
		}
		fmt.Println()
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "aggbench: %d figure(s) failed the shape check\n", failed)
		os.Exit(1)
	}
}
