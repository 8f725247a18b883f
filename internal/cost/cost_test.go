package cost

import (
	"math"
	"testing"

	"parallelagg/internal/params"
)

func model() *Model { return New(params.Default()) }

// sweep returns the paper's x-axis: group counts from 1 to |R|/2 by decades.
func sweep(prm params.Params) []float64 {
	var gs []float64
	for g := 1.0; g <= float64(prm.Tuples)/2; g *= 10 {
		gs = append(gs, g)
	}
	gs = append(gs, float64(prm.Tuples)/2)
	return gs
}

func sel(prm params.Params, groups float64) float64 {
	return groups / float64(prm.Tuples)
}

func TestHelpersMatchTable1(t *testing.T) {
	m := model()
	if got := m.cpu(300); math.Abs(got-7.5e-6) > 1e-12 {
		t.Errorf("cpu(300) = %v, want 7.5µs", got)
	}
	if got := m.mp(); math.Abs(got-25e-6) > 1e-12 {
		t.Errorf("mp = %v, want 25µs", got)
	}
	if got := m.ml(); math.Abs(got-2e-3) > 1e-12 {
		t.Errorf("ml = %v, want 2ms", got)
	}
	if got := m.tuplesPerNode(); got != 250_000 {
		t.Errorf("tuplesPerNode = %v", got)
	}
	if got := m.localSel(1e-6); got != 32e-6 {
		t.Errorf("S_l = %v", got)
	}
	if got := m.localSel(0.5); got != 1 {
		t.Errorf("S_l(0.5) = %v, want 1", got)
	}
	if got := m.globalSel(1e-6); got != 1.0/32 {
		t.Errorf("S_g = %v", got)
	}
	if got := m.globalSel(0.25); got != 0.25 {
		t.Errorf("S_g(0.25) = %v", got)
	}
}

func TestOverflowFraction(t *testing.T) {
	m := model() // M = 10000
	if f := m.overflowFrac(5000); f != 0 {
		t.Errorf("no overflow expected below M, got %v", f)
	}
	if f := m.overflowFrac(20000); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("overflowFrac(2M) = %v, want 0.5", f)
	}
	if f := m.overflowFrac(0); f != 0 {
		t.Errorf("overflowFrac(0) = %v", f)
	}
}

// Figure 1 shape: the Two Phase algorithms win at few groups, the
// Repartitioning algorithm wins at many groups, and C-2P's sequential
// coordinator makes it the worst at many groups.
func TestFig1Shape(t *testing.T) {
	m := model()
	prm := m.P
	few := sel(prm, 10)
	many := sel(prm, float64(prm.Tuples)/2)
	if m.TwoPhase(few).Total() >= m.Rep(few).Total() {
		t.Errorf("few groups: 2P %.1fs not better than Rep %.1fs",
			m.TwoPhase(few).Total(), m.Rep(few).Total())
	}
	if m.Rep(many).Total() >= m.TwoPhase(many).Total() {
		t.Errorf("many groups: Rep %.1fs not better than 2P %.1fs",
			m.Rep(many).Total(), m.TwoPhase(many).Total())
	}
	if m.C2P(many).Total() <= m.TwoPhase(many).Total() {
		t.Errorf("many groups: C2P %.1fs should be worse than 2P %.1fs",
			m.C2P(many).Total(), m.TwoPhase(many).Total())
	}
	// At a single group C2P and 2P are nearly identical.
	one := sel(prm, 1)
	if r := m.C2P(one).Total() / m.TwoPhase(one).Total(); r > 1.05 {
		t.Errorf("scalar aggregate: C2P/2P ratio = %v, want ≈1", r)
	}
}

// The two-phase family's cost must be monotonically non-decreasing in the
// number of groups. Rep is different: it is U-shaped — expensive at few
// groups (wasted processors), cheapest in the middle, then growing again
// with the result size.
func TestCostsMonotoneInGroups(t *testing.T) {
	m := model()
	prm := m.P
	algs := map[string]func(float64) Breakdown{
		"C2P": m.C2P, "2P": m.TwoPhase, "A2P": m.A2P,
	}
	for name, f := range algs {
		prev := -1.0
		for _, g := range sweep(prm) {
			tot := f(sel(prm, g)).Total()
			if tot < prev*(1-1e-9) {
				t.Errorf("%s: cost decreased at %v groups (%.3f < %.3f)", name, g, tot, prev)
			}
			prev = tot
		}
	}
}

// Rep's wasted-processor shape: one group forces all tuples through a
// single node, which must cost much more than the balanced mid-range, and
// the very high group counts must cost more than the mid-range too.
func TestRepUShape(t *testing.T) {
	m := model()
	prm := m.P
	one := m.Rep(sel(prm, 1)).Total()
	mid := m.Rep(sel(prm, 10_000)).Total()
	huge := m.Rep(0.5).Total()
	if one < 2*mid {
		t.Errorf("Rep at 1 group = %.1fs, mid-range %.1fs; wasted processors should dominate", one, mid)
	}
	if huge <= mid {
		t.Errorf("Rep at S=0.5 = %.1fs should exceed mid-range %.1fs", huge, mid)
	}
}

// Figure 3 shape: the adaptive algorithms track the lower envelope of
// {2P, Rep} across the whole selectivity range.
func TestFig3AdaptiveTracksEnvelope(t *testing.T) {
	m := model()
	prm := m.P
	for _, g := range sweep(prm) {
		s := sel(prm, g)
		envelope := math.Min(m.TwoPhase(s).Total(), m.Rep(s).Total())
		a2p := m.A2P(s).Total()
		if a2p > envelope*1.30 {
			t.Errorf("A2P at %v groups = %.2fs, envelope %.2fs (>30%% off)", g, a2p, envelope)
		}
		arep := m.ARep(s).Total()
		if arep > envelope*1.35 {
			t.Errorf("ARep at %v groups = %.2fs, envelope %.2fs (>35%% off)", g, arep, envelope)
		}
	}
}

// The Sampling algorithm pays a roughly constant overhead over the better
// of 2P and Rep.
func TestSamplingOverheadConstant(t *testing.T) {
	m := model()
	prm := m.P
	sample := 10 * 100 * prm.N // 10× the default crossover threshold
	var overheads []float64
	for _, g := range sweep(prm) {
		s := sel(prm, g)
		best := math.Min(m.TwoPhase(s).Total(), m.Rep(s).Total())
		overheads = append(overheads, m.Samp(s, sample).Total()-best)
	}
	// Overhead must always be positive and bounded.
	for i, o := range overheads {
		if o < 0 {
			// Sampling may pick the "wrong" side near the crossover where
			// both are close; it must never beat the envelope by much.
			if o < -0.5 {
				t.Errorf("sample overhead at sweep point %d = %v (beats envelope)", i, o)
			}
			continue
		}
		if o > 60 {
			t.Errorf("sample overhead at sweep point %d = %.1fs, unreasonably large", i, o)
		}
	}
}

// Figure 4 shape: on the shared-bus Ethernet, repartitioning's wire time
// dominates, so 2P stays ahead of Rep until the group count is well past
// the memory size.
func TestFig4EthernetPenalizesRep(t *testing.T) {
	prm := params.Implementation()
	m := New(prm)
	// At groups = M (no 2P overflow yet), 2P must win big on Ethernet.
	s := sel(prm, float64(prm.HashEntries))
	if m.TwoPhase(s).Total() >= m.Rep(s).Total() {
		t.Errorf("Ethernet at G=M: 2P %.1fs should beat Rep %.1fs",
			m.TwoPhase(s).Total(), m.Rep(s).Total())
	}
	// The same point on the fast network has them much closer.
	fast := New(params.Default())
	fastS := sel(fast.P, float64(fast.P.HashEntries))
	ethRatio := m.Rep(s).Total() / m.TwoPhase(s).Total()
	fastRatio := fast.Rep(fastS).Total() / fast.TwoPhase(fastS).Total()
	if ethRatio <= fastRatio {
		t.Errorf("Ethernet Rep/2P ratio %.2f should exceed fast-net ratio %.2f", ethRatio, fastRatio)
	}
}

// Figures 5 & 6 shape: scaleup. With per-node data fixed and N growing,
// the adaptive algorithms' time should stay near-flat (ideal scaleup),
// while C2P's time at high selectivity grows with N.
func TestScaleupShape(t *testing.T) {
	perNode := int64(250_000)
	at := func(n int, s float64, f func(*Model, float64) float64) float64 {
		prm := params.Default()
		prm.N = n
		prm.Tuples = perNode * int64(n)
		return f(New(prm), s)
	}
	a2p := func(m *Model, s float64) float64 { return m.A2P(s).Total() }
	c2p := func(m *Model, s float64) float64 { return m.C2P(s).Total() }

	// Low selectivity (Figure 5): A2P near-ideal from 1 to 32 nodes.
	lo := 2.0e-6
	if r := at(32, lo, a2p) / at(1, lo, a2p); r > 1.25 {
		t.Errorf("A2P low-sel scaleup degradation ×%.2f, want ≤1.25", r)
	}
	// High selectivity (Figure 6): A2P still near-ideal...
	hi := 0.25
	if r := at(32, hi, a2p) / at(1, hi, a2p); r > 1.4 {
		t.Errorf("A2P high-sel scaleup degradation ×%.2f, want ≤1.4", r)
	}
	// ...while the centralized coordinator collapses.
	if r := at(32, hi, c2p) / at(1, hi, c2p); r < 4 {
		t.Errorf("C2P high-sel scaleup degradation ×%.2f, want ≥4 (coordinator bottleneck)", r)
	}
}

// Figure 7 shape: a larger sample costs more up front but moves the 2P/Rep
// crossover so the mid-range avoids unnecessary repartitioning.
func TestFig7SampleSizeTradeoff(t *testing.T) {
	m := model()
	prm := m.P
	small, large := 3200, 320_000
	// Overhead ordering at very few groups: the small sample is cheaper.
	s := sel(prm, 1)
	if m.Samp(s, small).Total() >= m.Samp(s, large).Total() {
		t.Error("small sample should be cheaper at 1 group")
	}
	// Mid-range: groups between the two thresholds. small → Rep, large → 2P.
	mid := sel(prm, 10_000) // small threshold 320 < 10000 < large threshold 32000
	if New(prm).NoIO {
		t.Fatal("unexpected NoIO")
	}
	smallPick := m.Samp(mid, small).Total()
	largePick := m.Samp(mid, large).Total()
	_ = smallPick
	_ = largePick
	// With Ethernet the wrong pick (Rep) is expensive; check on the
	// implementation configuration.
	eth := New(params.Implementation())
	midEth := sel(eth.P, 5_000)
	if eth.Samp(midEth, 320_000).Total() >= eth.Samp(midEth, 3200).Total()+
		eth.Samp(midEth, 320_000).ScanIO {
		// The large sample picks 2P (5000 < 32000); the small sample picks
		// Rep (5000 ≥ 320) and pays the bus. Large should win despite its
		// sampling cost.
		t.Errorf("on Ethernet, large sample (%.1fs) should beat small (%.1fs) mid-range",
			eth.Samp(midEth, 320_000).Total(), eth.Samp(midEth, 3200).Total())
	}
}

// NoIO (Figure 2) must remove scan and result I/O but keep overflow I/O.
func TestNoIO(t *testing.T) {
	m := model()
	m.NoIO = true
	s := sel(m.P, float64(m.P.Tuples)/2) // heavy overflow regime
	b := m.TwoPhase(s)
	if b.ScanIO != 0 || b.ResultIO != 0 {
		t.Errorf("NoIO left scan %.2f / result %.2f", b.ScanIO, b.ResultIO)
	}
	if b.OverflowIO == 0 {
		t.Error("NoIO should keep overflow I/O")
	}
	with := model().TwoPhase(s)
	if b.Total() >= with.Total() {
		t.Error("NoIO not cheaper than with I/O")
	}
}

// A2P must degenerate to exactly TwoPhase when the local table never fills.
func TestA2PDegeneratesToTwoPhase(t *testing.T) {
	m := model()
	s := sel(m.P, 100) // 100 groups ≪ M
	if a, b := m.A2P(s).Total(), m.TwoPhase(s).Total(); a != b {
		t.Errorf("A2P %.4f != 2P %.4f for tiny group count", a, b)
	}
}

// ARep must degenerate to exactly Rep when groups are plentiful.
func TestARepDegeneratesToRep(t *testing.T) {
	m := model()
	s := sel(m.P, float64(m.P.Tuples)/2)
	if a, b := m.ARep(s).Total(), m.Rep(s).Total(); a != b {
		t.Errorf("ARep %.4f != Rep %.4f for huge group count", a, b)
	}
}

func TestBreakdownTotalAndDuration(t *testing.T) {
	b := Breakdown{ScanIO: 1, OverflowIO: 2, ResultIO: 3, CPU: 4, Net: 5}
	if b.Total() != 15 {
		t.Errorf("Total = %v", b.Total())
	}
	if b.Duration().Seconds() != 15 {
		t.Errorf("Duration = %v", b.Duration())
	}
}
