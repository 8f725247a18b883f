package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentiles(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.25, 17.5}, {0.5, 25}, {0.75, 32.5}, {0.9, 37}, {1, 40},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd count = %g, want 2", got)
	}
	if got := iqrShare(xs); !near(got, 15.0/25) {
		t.Errorf("iqrShare = %g, want 0.6", got)
	}
	if percentile(nil, 0.5) != 0 || iqrShare(nil) != 0 {
		t.Error("empty input must yield 0, not NaN")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, StartNS: 100, EndNS: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{StartNS: 110, EndNS: 120}, {StartNS: 150, EndNS: 170}}, 70},
		{"overlapping count once", []span{{StartNS: 110, EndNS: 160}, {StartNS: 140, EndNS: 180}}, 30},
		{"nested", []span{{StartNS: 110, EndNS: 190}, {StartNS: 120, EndNS: 130}}, 20},
		{"sticking out is clipped", []span{{StartNS: 50, EndNS: 120}, {StartNS: 190, EndNS: 400}}, 70},
		{"outside entirely", []span{{StartNS: 0, EndNS: 100}, {StartNS: 200, EndNS: 300}}, 100},
		{"unsorted", []span{{StartNS: 150, EndNS: 170}, {StartNS: 110, EndNS: 155}}, 40},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time = %d, want %d", c.name, got, c.want)
		}
	}

	// Through the recorder: two overlapping workers under one call.
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 90},
		{ID: 3, Parent: 2, StartNS: 20, EndNS: 60},
		{ID: 4, Parent: 2, StartNS: 30, EndNS: 80},
	}
	self := selfTimes(spans)
	if self[1] != 20 || self[2] != 20 || self[3] != 40 || self[4] != 50 {
		t.Errorf("selfTimes = %v", self)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "cpu_ns_per_row", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rows_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d                metricDef
		old, new, so, sn float64
		want             string
	}{
		{lower, 100, 105, 0.01, 0.01, "same"},
		{lower, 100, 111, 0.01, 0.01, "worse"},
		{lower, 100, 89, 0.01, 0.01, "better"},
		{higher, 100, 89, 0.01, 0.01, "worse"},
		{higher, 100, 111, 0.01, 0.01, "better"},
		{higher, 100, 95, 0.01, 0.01, "same"},
		// A spread wider than the bound on either side hides any verdict,
		// a clear regression included.
		{lower, 100, 150, 0.11, 0.01, "unresolved"},
		{lower, 100, 100, 0.01, 0.11, "unresolved"},
		{lower, 100, 105, 0.10, 0.10, "same"}, // at the bound is still resolved
	} {
		if got := verdict(c.d, c.old, c.new, c.so, c.sn); got != c.want {
			t.Errorf("verdict(%s %s, %g→%g, spreads %g %g) = %s, want %s",
				c.d.Name, c.d.Better, c.old, c.new, c.so, c.sn, got, c.want)
		}
	}
}

// fakeSuite is a one-workload result with every end-to-end metric at v.
func fakeSuite(v, spread, failedShare float64) *suiteResult {
	wr := &workloadResult{EndToEnd: map[string]value{}, Spread: map[string]float64{}, FailedShare: failedShare}
	for _, d := range endToEnd {
		wr.EndToEnd[d.Name] = value{v, d.Unit}
		wr.Spread[d.Name] = spread
	}
	return &suiteResult{Env: env{P: 2, Scale: 1, Seconds: 10}, Workloads: map[string]*workloadResult{"live_few": wr}}
}

func TestCompare(t *testing.T) {
	base := fakeSuite(100, 0.01, 0)
	for _, c := range []struct {
		name   string
		new    *suiteResult
		strict bool
		pass   bool
	}{
		{"identical", fakeSuite(100, 0.01, 0), true, true},
		{"within bounds", fakeSuite(103, 0.01, 0), true, true},
		// +30%: worse for the lower-is-better metrics.
		{"regressed", fakeSuite(130, 0.01, 0), false, false},
		{"unresolved passes a plain compare", fakeSuite(130, 0.5, 0), false, true},
		{"unresolved fails the A/A check", fakeSuite(100, 0.5, 0), true, false},
		{"more failures", fakeSuite(100, 0.01, 0.01), false, false},
	} {
		var out bytes.Buffer
		if got := compare(&out, base, c.new, c.strict); got != c.pass {
			t.Errorf("%s: pass = %v, want %v\n%s", c.name, got, c.pass, out.String())
		}
	}
	var out bytes.Buffer
	if compare(&out, base, &suiteResult{Workloads: map[string]*workloadResult{}}, false) {
		t.Error("a comparison with no workload in common must not pass")
	}
}

func TestMetricNames(t *testing.T) {
	if err := validateCatalogue(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "has space", "slash/name", ".leading", strings.Repeat("x", 65)} {
		if validateCatalogue([]metricDef{{Name: bad}}) == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if validateCatalogue([]metricDef{{Name: "a"}}, []metricDef{{Name: "a"}}) == nil {
		t.Error("duplicate name accepted")
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the runner %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the runner %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the runner %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the runner %+v", i, got, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the runner %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the runner %+v", i, got, d)
		}
	}
	if float64(bj.RunSeconds) != fullOptions().seconds {
		t.Errorf("run_seconds %d, the runner's default is %g", bj.RunSeconds, fullOptions().seconds)
	}
}

// TestSmoke runs every workload at 1/64 scale with every check on, the
// traced pass included, so the benchmark cannot rot unnoticed.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	res, err := readResult(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, d := range perLayer {
		known[d.Name] = true
	}
	emitted := make(map[string]bool)
	for _, w := range workloads {
		wr := res.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("%s missing from the result file", w.Name)
		}
		if wr.FailedShare != 0 || wr.Attempted == 0 {
			t.Errorf("%s: failed_share %g over %d queries", w.Name, wr.FailedShare, wr.Attempted)
		}
		for _, d := range endToEnd {
			if v, ok := wr.EndToEnd[d.Name]; !ok || !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be reported and positive", w.Name, d.Name, v.Value)
			}
		}
		if len(wr.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, catalogue has %d", w.Name, len(wr.EndToEnd), len(endToEnd))
		}
		for name, v := range wr.PerLayer {
			if !known[name] {
				t.Errorf("%s emitted %s, which BENCHMARK.json does not list", w.Name, name)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", w.Name, name, v.Value)
			}
			emitted[name] = true
		}
		var spans []span
		data, err := os.ReadFile(filepath.Join(dir, w.Name+".trace.json"))
		if err == nil {
			err = json.Unmarshal(data, &spans)
		}
		if err != nil || len(spans) == 0 {
			t.Errorf("%s: trace file: %v (%d spans)", w.Name, err, len(spans))
		}
	}
	for name := range known {
		if !emitted[name] {
			t.Errorf("no workload emitted %s", name)
		}
	}
	if sw := res.Workloads["live_few"].PerLayer["live.switched_workers"].Value; sw != 0 {
		t.Errorf("live_few switched %g workers; 1,024 groups must never fill the table", sw)
	}
	if passes := res.Workloads["sql_groupby"].PerLayer["query.engine_passes"].Value; passes != 3 {
		t.Errorf("sql_groupby ran %g engine passes, want 3", passes)
	}
}

// TestContractLine checks the last line of standard output the driver
// parses, in both trace modes.
func TestContractLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "dist_loop", "--seed", "7", "--seconds", "0", "--trace", trace, "-smoke", "-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d\n%s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]value
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("last line is not the contract object: %v\n%s", err, lines[len(lines)-1])
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("trace %s: %s", trace, lines[len(lines)-1])
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(got.Metrics), len(want))
		}
		for _, d := range want {
			if v, ok := got.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v)", trace, d.Name, v, ok)
			}
		}
	}
}

// TestCheckCatchesWrongResult makes sure the oracle comparison can fail.
func TestCheckCatchesWrongResult(t *testing.T) {
	opt := fullOptions().smoke()
	var stderr bytes.Buffer
	opt.stderr = &stderr
	r := newRunner(opt)
	st := &state{inst: workloadByName("live_few").build(r.p, 1, opt.scale)}
	res, err := st.inst.query(nil, nil)
	if !r.check(st, res, err, "test", 0, 0) {
		t.Fatalf("correct result rejected: %s", stderr.String())
	}
	lr := res.(liveResult)
	for k, s := range lr.Groups {
		s.Sum++
		lr.Groups[k] = s
		break
	}
	if r.check(st, res, nil, "test", 0, 1) || st.failed != 1 || !strings.Contains(stderr.String(), "live_few test round 0 query 1") {
		t.Errorf("corrupted result accepted (failed=%d): %s", st.failed, stderr.String())
	}
}

func TestCountFor(t *testing.T) {
	for _, c := range []struct {
		seconds, perNS float64
		lo, hi, want   int
	}{
		{0, 1e6, 3, 20, 3},       // no budget: the floor
		{1, 100e6, 3, 20, 10},    // ten 100 ms queries fit into a second
		{60, 100e6, 3, 20, 20},   // the cap
		{1, 2 * 700e6, 3, 20, 3}, // slow pairs: the floor again
	} {
		if got := countFor(c.seconds, c.perNS, c.lo, c.hi); got != c.want {
			t.Errorf("countFor(%g s, %g ns, %d, %d) = %d, want %d", c.seconds, c.perNS, c.lo, c.hi, got, c.want)
		}
	}
}

// TestReference runs reference units through a meter and stops the
// goroutines: stop returning is the check that they exit.
func TestReference(t *testing.T) {
	ref := newReference(2)
	m := newRefMeter(4)
	m.run(ref, 3)
	m.run(ref, 2)
	ref.stop()
	if len(m.wallNS) != 5 || len(m.cpuNS) != 5 {
		t.Fatalf("meter after 5 units: %+v", m)
	}
	wall, cpu := m.slowdown(2)
	if want := percentile(m.wallNS, 0.25) / refNominalWallNS; !near(wall, want) || !(wall > 0) || !(cpu >= 0) {
		t.Errorf("slowdown = %g wall, %g CPU; want %g wall", wall, cpu, want)
	}
}

func TestCPUJiffies(t *testing.T) {
	d := cpuJiffies{busy: 130, steal: 50}.since(cpuJiffies{busy: 100, steal: 40})
	if d != (cpuJiffies{30, 10}) || !near(d.given(), 0.75) {
		t.Errorf("since = %+v, given = %g", d, d.given())
	}
	if (cpuJiffies{}).given() != 1 {
		t.Error("no accounting must read as nothing stolen")
	}
}
