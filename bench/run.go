package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options fixes everything a run depends on besides the code under test.
// The counts are constants of the benchmark; only -smoke shrinks them.
type options struct {
	workloads []*workload
	seed      int64
	seconds   float64 // timed budget per workload, split over rounds
	trace     bool
	// traceSeconds is what the traced pass may spend per workload on its
	// query pairs and line-ups; it sizes their counts from the query time
	// the timed rounds saw, within fixed floors and caps.
	traceSeconds float64
	outDir       string
	stdout       io.Writer // report
	stderr       io.Writer // failures

	scale   int64 // divides row and group counts
	rounds  int   // timed rounds, interleaved across workloads
	setups  int   // set-up repetitions; setup_s is their median
	warmups int   // untimed queries at the end of each set-up
}

func fullOptions() options {
	return options{workloads: workloads, seed: 1, seconds: 10, trace: true, traceSeconds: 20,
		outDir: "bench/out", stdout: os.Stdout, stderr: os.Stderr,
		scale: 1, rounds: 10, setups: 9, warmups: 3}
}

// smoke shrinks a run to a rot check: every workload, every check, every
// layer cell, a few seconds in total.
func (o options) smoke() options {
	o.scale, o.rounds, o.setups, o.warmups = 64, 1, 1, 1
	o.seconds, o.traceSeconds = 0, 0 // one timed query; the traced pass at its floors
	return o
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env records what results are comparable under: equal P above all.
type env struct {
	P       int     `json:"p"`
	NProc   int     `json:"nproc"`
	Go      string  `json:"go"`
	GitRev  string  `json:"git_rev"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Scale   int64   `json:"scale"`
}

type workloadResult struct {
	Rows        int64   `json:"rows"`
	Groups      int     `json:"groups"`
	Samples     int     `json:"samples"` // timed queries behind rows_per_s
	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	FailedShare float64 `json:"failed_share"`
	// EndToEnd come from the untraced rounds only. Spread is how far each
	// one is known: the round-to-round IQR as a share of the median,
	// divided by the square root of the number of rounds (about the
	// standard error of a median). Compare reports a metric whose spread
	// exceeds its bound as unresolved.
	EndToEnd map[string]value   `json:"end_to_end"`
	Spread   map[string]float64 `json:"spread"`
	PerLayer map[string]value   `json:"per_layer"`
	// SelfShare is each span name's share of the summed self time of the
	// traced queries.
	SelfShare map[string]float64 `json:"trace_self_share,omitempty"`
}

type suiteResult struct {
	Env       env                        `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// roundStat is one workload's share of one timed round: its queries and
// the reference units run between them.
type roundStat struct {
	wallNS  []float64 // per query
	cpuNS   float64
	ref     refMeter
	bytes   uint64
	mallocs uint64
	cpuJ    cpuJiffies
}

// state is one workload's accumulators during a run.
type state struct {
	inst      *instance
	setupS    []float64
	genS      []float64
	rounds    []roundStat
	minWallNS float64 // fastest query so far; sizes the reference blocks
	queryNS   float64 // median timed query; sizes the traced pass
	attempted int
	failed    int
	layer     map[string]float64
	selfShare map[string]float64
}

type runner struct {
	opt   options
	p     int
	ref   *reference
	clock func() int64 // the one clock runner spans and engine tracers share
}

func newRunner(opt options) *runner {
	p := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(p)
	start := time.Now()
	return &runner{opt: opt, p: p, clock: func() int64 { return time.Since(start).Nanoseconds() }}
}

// cpuNS is the process's user+system CPU time so far.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB: the VmHWM figure
}

// cpuJiffies is the machine's CPU accounting so far: ticks spent running
// anything, and ticks the hypervisor gave to someone else while a CPU of
// this machine had work to do.
type cpuJiffies struct{ busy, steal int64 }

func (j cpuJiffies) since(j0 cpuJiffies) cpuJiffies {
	return cpuJiffies{j.busy - j0.busy, j.steal - j0.steal}
}

// given is the share of the CPU time the machine asked for that it got.
// Wall time measured meanwhile is multiplied by it: a runnable vCPU that
// is not running makes no progress, whatever it was about to do.
func (j cpuJiffies) given() float64 {
	if j.busy+j.steal == 0 {
		return 1
	}
	return float64(j.busy) / float64(j.busy+j.steal)
}

// readCPUJiffies reads the first line of /proc/stat. Where there is none
// it returns zeros, and run.steal_share reads 0.
func readCPUJiffies() cpuJiffies {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuJiffies{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuJiffies{}
	}
	var j cpuJiffies
	for i, s := range f[1:9] {
		v, _ := strconv.ParseInt(s, 10, 64)
		switch i {
		case 0, 1, 2, 5, 6:
			j.busy += v
		case 7:
			j.steal = v
		}
	}
	return j
}

// check compares one query's outcome with the oracle, outside any timed
// interval. It formats only on failure so that the passing path allocates
// nothing between timed queries.
func (r *runner) check(st *state, res result, err error, phase string, round, query int) bool {
	st.attempted++
	if err == nil {
		if d := res.digest(); d != st.inst.oracle {
			err = fmt.Errorf("result has %v, oracle has %v", d, st.inst.oracle)
		}
	}
	if err != nil {
		st.failed++
		fmt.Fprintf(r.opt.stderr, "FAIL %s %s round %d query %d: %v\n", st.inst.w.Name, phase, round, query, err)
		return false
	}
	return true
}

// setupRefUnits is the reference block run between the steps of a set-up.
const setupRefUnits = 10

// setUp generates the inputs, builds the oracle and warms up, several
// times over: setup_s is the median, so that work a later change moves
// out of the queries and into set-up shows, with a spread attached. Like
// the timed metrics it is normalised: by the reference units run between
// its steps and by the CPU time the machine was given meanwhile.
func (r *runner) setUp(w *workload) *state {
	st := &state{layer: make(map[string]float64), minWallNS: math.Inf(1)}
	for i := 0; i < r.opt.setups; i++ {
		st.inst = nil // let the previous repetition's inputs go
		ref := newRefMeter((2 + r.opt.warmups) * setupRefUnits)
		j0 := readCPUJiffies()
		ref.run(r.ref, setupRefUnits)
		start := time.Now()
		st.inst = w.build(r.p, r.opt.seed, r.opt.scale)
		raw := time.Since(start)
		ref.run(r.ref, setupRefUnits)
		for q := 0; q < r.opt.warmups; q++ {
			start = time.Now()
			res, err := st.inst.query(nil, nil)
			r.check(st, res, err, "warm-up", i, q)
			raw += time.Since(start)
			ref.run(r.ref, setupRefUnits)
		}
		slow, _ := ref.slowdown(r.p)
		st.setupS = append(st.setupS, raw.Seconds()*readCPUJiffies().since(j0).given()/slow)
		st.genS = append(st.genS, st.inst.genS)
	}
	return st
}

// refShare is the reference time run after each timed query, as a share
// of the fastest query seen so far.
const refShare = 0.15

// timedSlice runs st's queries back to back (closed loop, one client) for
// budget, a block of reference units after each. Only the query call sits
// inside the wall and CPU windows; the check, the reference units and the
// MemStats reads do not. Neither the check nor the units allocate.
func (r *runner) timedSlice(st *state, round int, budget time.Duration) {
	rs := roundStat{wallNS: make([]float64, 0, 256), ref: newRefMeter(4096)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	j0 := readCPUJiffies()
	start := time.Now()
	for q := 0; q == 0 || time.Since(start) < budget; q++ {
		c0 := cpuNS()
		t0 := time.Now()
		res, err := st.inst.query(nil, nil)
		wall := float64(time.Since(t0))
		rs.cpuNS += float64(cpuNS() - c0)
		rs.wallNS = append(rs.wallNS, wall)
		r.check(st, res, err, "timed", round, q)
		st.minWallNS = min(st.minWallNS, wall)
		rs.ref.run(r.ref, min(max(int(refShare*st.minWallNS/refNominalWallNS), 2), 500))
	}
	j1 := readCPUJiffies()
	runtime.ReadMemStats(&m1)
	rs.bytes = m1.TotalAlloc - m0.TotalAlloc
	rs.mallocs = m1.Mallocs - m0.Mallocs
	rs.cpuJ = j1.since(j0)
	st.rounds = append(st.rounds, rs)
}

// run executes the suite: set-up, the timed rounds round-robin across the
// selected workloads (a noisy-neighbour burst then costs every workload a
// few samples instead of costing one workload its median), then the
// traced pass.
func (r *runner) run() (*suiteResult, error) {
	opt := r.opt
	runtime.GC() // -aa runs twice in one process: both runs start from a collected heap
	r.ref = newReference(r.p)
	defer r.ref.stop()
	states := make([]*state, len(opt.workloads))
	for i, w := range opt.workloads {
		states[i] = r.setUp(w)
	}
	slice := time.Duration(opt.seconds / float64(opt.rounds) * float64(time.Second))
	for round := 0; round < opt.rounds; round++ {
		for _, st := range states {
			r.timedSlice(st, round, slice)
		}
	}
	if opt.trace {
		if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
			return nil, err
		}
		for _, st := range states {
			rec := r.tracedPass(st)
			if err := rec.write(filepath.Join(opt.outDir, st.inst.w.Name+".trace.json")); err != nil {
				return nil, err
			}
		}
	}
	out := &suiteResult{
		Env: env{P: r.p, NProc: runtime.NumCPU(), Go: runtime.Version(), GitRev: gitRev(),
			Seed: opt.seed, Seconds: opt.seconds, Scale: opt.scale},
		Workloads: make(map[string]*workloadResult),
	}
	for _, st := range states {
		out.Workloads[st.inst.w.Name] = st.finish(r.p)
	}
	return out, nil
}

// timedWalls is every timed query's raw wall time, in nanoseconds.
func (st *state) timedWalls() []float64 {
	var walls []float64
	for _, rs := range st.rounds {
		walls = append(walls, rs.wallNS...)
	}
	return walls
}

// finish turns the accumulators into named metrics. Each timed metric is
// computed per round — the round's mean, times the share of CPU time the
// machine was given (wall time only), divided by how much slower than
// nominal the round's reference units ran — and the median over rounds is
// reported, so that one bad second does not move the result.
func (st *state) finish(p int) *workloadResult {
	var rate, cpu, bytes, mallocs, slowdown []float64
	var total cpuJiffies
	for _, rs := range st.rounds {
		n := float64(len(rs.wallNS))
		rows := n * float64(st.inst.rows)
		var wall float64
		for _, w := range rs.wallNS {
			wall += w
		}
		slowWall, slowCPU := rs.ref.slowdown(p)
		rate = append(rate, rows/(wall*rs.cpuJ.given()/slowWall)*1e9)
		cpu = append(cpu, rs.cpuNS/slowCPU/rows)
		bytes = append(bytes, float64(rs.bytes)/rows)
		mallocs = append(mallocs, float64(rs.mallocs)/rows*1000)
		slowdown = append(slowdown, slowWall)
		total.busy, total.steal = total.busy+rs.cpuJ.busy, total.steal+rs.cpuJ.steal
	}
	walls := st.timedWalls()
	res := &workloadResult{
		Rows: st.inst.rows, Groups: st.inst.groups, Samples: len(walls),
		Attempted: st.attempted, Failed: st.failed,
		FailedShare: float64(st.failed) / float64(st.attempted),
		EndToEnd:    make(map[string]value), Spread: make(map[string]float64),
		PerLayer: make(map[string]value), SelfShare: st.selfShare,
	}
	perRound := map[string][]float64{
		"rows_per_s": rate, "cpu_ns_per_row": cpu, "alloc_bytes_per_row": bytes,
		"allocs_per_krow": mallocs, "setup_s": st.setupS,
	}
	for _, d := range endToEnd {
		res.EndToEnd[d.Name] = value{median(perRound[d.Name]), d.Unit}
		res.Spread[d.Name] = iqrShare(perRound[d.Name]) / math.Sqrt(float64(len(perRound[d.Name])))
	}

	wallMS := make([]float64, len(walls))
	for i, w := range walls {
		wallMS[i] = w / 1e6
	}
	st.layer["workload.gen_s"] = median(st.genS)
	st.layer["run.rows_per_s_raw"] = float64(st.inst.rows) / median(walls) * 1e9
	st.layer["run.ref_slowdown"] = median(slowdown)
	st.layer["run.steal_share"] = 1 - total.given()
	st.layer["run.query_ms_p90"] = percentile(wallMS, 0.9)
	st.layer["run.iqr_share"] = iqrShare(wallMS)
	st.layer["run.peak_rss_mb"] = peakRSSMB()
	for _, d := range perLayer {
		if v, ok := st.layer[d.Name]; ok {
			res.PerLayer[d.Name] = value{v, d.Unit}
		}
	}
	return res
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// report prints every metric by name with its unit.
func report(w io.Writer, res *suiteResult, names []string) {
	e := res.Env
	fmt.Fprintf(w, "P=%d nproc=%d %s rev=%s seed=%d seconds=%g scale=1/%d\n",
		e.P, e.NProc, e.Go, e.GitRev, e.Seed, e.Seconds, e.Scale)
	for _, name := range names {
		wr := res.Workloads[name]
		fmt.Fprintf(w, "\n%s: %d rows, %d groups, %d timed samples, %d/%d queries failed (failed_share %g)\n",
			name, wr.Rows, wr.Groups, wr.Samples, wr.Failed, wr.Attempted, wr.FailedShare)
		for _, d := range endToEnd {
			v := wr.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-38s %14.6g %-8s spread %.1f%% (bound %.0f%%)\n",
				d.Name, v.Value, v.Unit, 100*wr.Spread[d.Name], 100*d.Bound)
		}
		for _, d := range perLayer {
			if v, ok := wr.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "  %-38s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
		if len(wr.SelfShare) > 0 {
			spans := make([]string, 0, len(wr.SelfShare))
			for s := range wr.SelfShare {
				spans = append(spans, s)
			}
			sort.Strings(spans)
			fmt.Fprintf(w, "  self time of traced queries:")
			for _, s := range spans {
				fmt.Fprintf(w, " %s %.1f%%", s, 100*wr.SelfShare[s])
			}
			fmt.Fprintln(w)
		}
	}
}

func writeResult(path string, res *suiteResult) error {
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res suiteResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// contractLine is the last line of standard output the benchmark driver
// reads: the end-to-end metrics with tracing off, every per-layer metric
// with tracing on. A layer the workload does not use reads 0.
func contractLine(wr *workloadResult, trace bool) string {
	metrics := make(map[string]value)
	if trace {
		for _, d := range perLayer {
			metrics[d.Name] = value{wr.PerLayer[d.Name].Value, d.Unit}
		}
	} else {
		metrics = wr.EndToEnd
	}
	line, err := json.Marshal(map[string]any{
		"correct": wr.Failed == 0, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // only NaN or Inf can do this: a bug in a metric's arithmetic
	}
	return string(line)
}
