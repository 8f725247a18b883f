// Command bench is the repository's one benchmark: six workloads through
// the public entry points of live, dist and sqlagg, five end-to-end
// metrics per workload with every query's result checked, and a traced
// pass that attributes the time to the tuple, aggtable, live, dist and
// query layers from outside. BENCHMARK.json at the repository root names
// the workloads and metrics; README.md in this directory is the glossary.
//
//	go run ./bench                          # all workloads, interleaved
//	go run ./bench -workload live_few -seed 1 -seconds 10 -trace 0
//	go run ./bench -compare old.json new.json
//	go run ./bench -aa                      # run twice, demand "same"
//	go run ./bench -smoke                   # 1/64 rows, every check, a few seconds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	opt := fullOptions()
	opt.stdout, opt.stderr = stdout, stderr
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and print the driver's JSON line last")
	fs.Int64Var(&opt.seed, "seed", opt.seed, "seed of the generated inputs")
	fs.Float64Var(&opt.seconds, "seconds", opt.seconds, "timed seconds per workload")
	trace := fs.Int("trace", 1, "1 runs the traced pass (per-layer metrics, trace files) after the timed rounds; 0 skips it")
	fs.StringVar(&opt.outDir, "out", opt.outDir, "directory for result.json and <workload>.trace.json")
	smoke := fs.Bool("smoke", false, "every workload at 1/64 rows, one round, all checks on")
	aa := fs.Bool("aa", false, "run the suite twice and fail unless every end-to-end metric compares as same")
	cmp := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validateCatalogue(endToEnd, perLayer); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1), false)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	opt.trace = *trace != 0
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		opt.workloads = []*workload{w}
		// One workload is one of the driver's many runs, which have a time
		// budget and take their own median over ten of them: three
		// set-ups, not nine.
		opt.setups = 3
		if opt.trace {
			// With tracing on it is the driver's per-layer run, which
			// reports no setup_s: it sets up once, and it splits -seconds
			// between the timed rounds and the traced pass.
			opt.setups = 1
			opt.seconds /= 2
			opt.traceSeconds = opt.seconds
		}
	}
	if *smoke {
		opt = opt.smoke()
	}

	if *aa {
		opt.trace = false // the self-check compares end-to-end metrics only
		var files [2]string
		for i := range files {
			files[i] = filepath.Join(opt.outDir, fmt.Sprintf("aa-%d.json", i+1))
			if code := runOnce(opt, files[i], false); code != 0 {
				return code
			}
		}
		return compareFiles(stdout, stderr, files[0], files[1], true)
	}
	return runOnce(opt, filepath.Join(opt.outDir, "result.json"), *name != "")
}

// runOnce runs the suite, prints the report and writes the result file.
// It returns non-zero when any query failed its check.
func runOnce(opt options, resultPath string, contract bool) int {
	res, err := newRunner(opt).run()
	if err == nil {
		err = writeResult(resultPath, res)
	}
	if err != nil {
		fmt.Fprintln(opt.stderr, "bench:", err)
		return 1
	}
	names := make([]string, len(opt.workloads))
	failed := 0
	for i, w := range opt.workloads {
		names[i] = w.Name
		failed += res.Workloads[w.Name].Failed
	}
	report(opt.stdout, res, names)
	fmt.Fprintf(opt.stdout, "\nresult file: %s\n", resultPath)
	if contract {
		fmt.Fprintln(opt.stdout, contractLine(res.Workloads[names[0]], opt.trace))
	}
	if failed > 0 {
		fmt.Fprintf(opt.stderr, "bench: %d queries failed their result check\n", failed)
		return 1
	}
	return 0
}

func compareFiles(stdout, stderr io.Writer, oldPath, newPath string, strict bool) int {
	old, err := readResult(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cur, err := readResult(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !compare(stdout, old, cur, strict) {
		return 1
	}
	return 0
}
