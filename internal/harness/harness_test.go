package harness

import (
	"bytes"
	"strings"
	"testing"
)

// quickRunner keeps the simulated figures small enough for unit tests while
// preserving the paper's data-to-memory ratios.
func quickRunner() Runner { return NewRunner(0.02, 1) }

func TestIDsCoverEveryPaperFigure(t *testing.T) {
	ids := IDs()
	if len(ids) != 9 {
		t.Fatalf("%d experiments, want 9 (figures 1-9)", len(ids))
	}
	for i, id := range ids {
		if want := "fig" + string(rune('1'+i)); id != want {
			t.Errorf("IDs()[%d] = %q, want %q", i, id, want)
		}
	}
}

func TestUnknownFigureRejected(t *testing.T) {
	if _, err := quickRunner().Figure("fig99"); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestAllIDsCoverExtensions(t *testing.T) {
	all := AllIDs()
	if len(all) != len(IDs())+len(ExtIDs()) {
		t.Fatalf("AllIDs has %d entries", len(all))
	}
	if all[len(all)-1] != "ext-simscaleup" {
		t.Errorf("last experiment = %q", all[len(all)-1])
	}
}

// TestAllFiguresHavePaperShape regenerates every experiment — the paper's
// figures and the extensions — and validates the qualitative claims
// against the data.
func TestAllFiguresHavePaperShape(t *testing.T) {
	r := quickRunner()
	for _, id := range AllIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := r.Figure(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := Check(e); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestModelFiguresSeriesComplete(t *testing.T) {
	r := quickRunner()
	want := map[string][]string{
		"fig1": {"C-2P", "2P", "Rep", "Rep-ethernet"},
		"fig2": {"C-2P", "2P", "Rep"},
		"fig3": {"2P", "Rep", "Samp", "A-2P", "A-Rep"},
		"fig4": {"2P", "Rep", "Samp", "A-2P", "A-Rep"},
		"fig5": {"C-2P", "2P", "Rep", "Samp", "A-2P", "A-Rep"},
		"fig6": {"C-2P", "2P", "Rep", "Samp", "A-2P", "A-Rep"},
		"fig7": {"Samp-3200", "Samp-32000", "Samp-320000", "2P", "Rep"},
	}
	for id, names := range want {
		e, err := r.Figure(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, name := range names {
			s, err := e.Get(name)
			if err != nil {
				t.Errorf("%s: %v", id, err)
				continue
			}
			if len(s.Points) == 0 {
				t.Errorf("%s/%s: empty series", id, name)
			}
			for _, p := range s.Points {
				if p.Y <= 0 {
					t.Errorf("%s/%s: non-positive time %v at x=%v", id, name, p.Y, p.X)
				}
			}
		}
	}
}

func TestSimFiguresDeterministic(t *testing.T) {
	r := quickRunner()
	a, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series {
		for j := range a.Series[i].Points {
			if a.Series[i].Points[j] != b.Series[i].Points[j] {
				t.Fatalf("fig9 not deterministic at series %d point %d", i, j)
			}
		}
	}
}

func TestRenderProducesAlignedTable(t *testing.T) {
	e, err := quickRunner().Figure("fig2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig2", "groups", "C-2P", "2P", "Rep"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	// Every data row has one cell per column.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Fatalf("render too short:\n%s", out)
	}
}

func TestSeriesYMissingPoint(t *testing.T) {
	s := Series{Name: "x", Points: []Point{{X: 1, Y: 2}}}
	if _, err := s.Y(3); err == nil {
		t.Error("missing point not reported")
	}
	if y, err := s.Y(1); err != nil || y != 2 {
		t.Errorf("Y(1) = %v, %v", y, err)
	}
}

func TestRunnerDefaults(t *testing.T) {
	r := NewRunner(0, 0)
	if r.Scale != 0.125 || r.Seed != 1 {
		t.Errorf("defaults = %+v", r)
	}
}

func TestSimParamsScalesMemoryWithData(t *testing.T) {
	full := NewRunner(1, 1).simParams()
	small := NewRunner(0.05, 1).simParams()
	fullRatio := float64(full.Tuples) / float64(full.HashEntries)
	smallRatio := float64(small.Tuples) / float64(small.HashEntries)
	if fullRatio != smallRatio {
		t.Errorf("data/memory ratio changed under scaling: %v vs %v", fullRatio, smallRatio)
	}
}

func TestGroupSweepSpansScalarToDupElim(t *testing.T) {
	gs := groupSweep(8_000_000)
	if gs[0] != 1 {
		t.Errorf("sweep starts at %v, want 1", gs[0])
	}
	if gs[len(gs)-1] != 4_000_000 {
		t.Errorf("sweep ends at %v, want |R|/2", gs[len(gs)-1])
	}
}

func TestRenderCSV(t *testing.T) {
	e, err := quickRunner().Figure("fig2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "groups,C-2P,2P,Rep" {
		t.Errorf("csv header = %q", lines[0])
	}
	// One row per X value plus the header.
	if len(lines) != len(groupSweep(8_000_000))+1 {
		t.Errorf("csv has %d lines", len(lines))
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != 3 {
			t.Errorf("csv row %q has wrong arity", l)
		}
	}
}

func TestRenderChart(t *testing.T) {
	e, err := quickRunner().Figure("fig1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.RenderChart(&buf, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"1 = C-2P", "2 = 2P", "3 = Rep", "log scale"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// The plot area contains at least one marker per series.
	for _, m := range []string{"1", "2", "3"} {
		if !strings.Contains(out, m) {
			t.Errorf("chart has no %q marker", m)
		}
	}
	// Tiny dimensions are clamped, not broken.
	buf.Reset()
	if err := e.RenderChart(&buf, 1, 1); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(buf.String(), "\n")) < 10 {
		t.Error("clamped chart too small")
	}
}

func TestRenderChartEmpty(t *testing.T) {
	e := &Experiment{ID: "x", Title: "t"}
	var buf bytes.Buffer
	if err := e.RenderChart(&buf, 40, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data") {
		t.Errorf("empty chart output: %q", buf.String())
	}
}

func TestRenderMarkdown(t *testing.T) {
	e, err := quickRunner().Figure("fig2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## fig2", "| groups | C-2P | 2P | Rep |", "|---|---|---|---|"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestExtensionFiguresSeriesComplete(t *testing.T) {
	r := quickRunner()
	want := map[string][]string{
		"ext-opt":        {"Static-pick", "A-2P", "Oracle"},
		"ext-sort":       {"Hash-2P", "Sort-2P"},
		"ext-inputskew":  {"2P", "Rep", "A-2P", "A-Rep"},
		"ext-bcast":      {"Bcast", "Rep", "A-2P"},
		"ext-simscaleup": {"C-2P", "2P", "Rep", "A-2P"},
	}
	for id, names := range want {
		e, err := r.Figure(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, name := range names {
			s, err := e.Get(name)
			if err != nil {
				t.Errorf("%s: %v", id, err)
				continue
			}
			if len(s.Points) == 0 {
				t.Errorf("%s/%s: empty series", id, name)
			}
		}
	}
}

// TestExtSortHashIsFig8TwoPhase: ext-sort's Hash-2P is the simulator's own
// 2P on fig8's relations, so the two series agree cell for cell.
func TestExtSortHashIsFig8TwoPhase(t *testing.T) {
	r := quickRunner()
	fig8, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	ext, err := r.ExtSort()
	if err != nil {
		t.Fatal(err)
	}
	twoP, err := fig8.Get("2P")
	if err != nil {
		t.Fatal(err)
	}
	hash, err := ext.Get("Hash-2P")
	if err != nil {
		t.Fatal(err)
	}
	if len(hash.Points) != len(twoP.Points) {
		t.Fatalf("Hash-2P has %d points, fig8's 2P %d", len(hash.Points), len(twoP.Points))
	}
	for i, p := range hash.Points {
		if p != twoP.Points[i] {
			t.Errorf("point %d: Hash-2P %+v, fig8's 2P %+v", i, p, twoP.Points[i])
		}
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	es, err := quickRunner().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != len(AllIDs()) {
		t.Fatalf("All returned %d experiments, want %d", len(es), len(AllIDs()))
	}
	for i, e := range es {
		if e.ID != AllIDs()[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, AllIDs()[i])
		}
	}
}
