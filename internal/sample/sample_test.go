package sample

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

func TestRequiredTuples(t *testing.T) {
	if got := RequiredTuples(320); got != 3200 {
		t.Errorf("RequiredTuples(320) = %d, want 3200", got)
	}
	if got := RequiredTuples(0); got != 10 {
		t.Errorf("RequiredTuples(0) = %d, want 10", got)
	}
}

func TestDecide(t *testing.T) {
	if Decide(5, 100) != UseTwoPhase {
		t.Error("few sampled groups must choose 2P")
	}
	if Decide(100, 100) != UseRepartitioning {
		t.Error("threshold reached must choose Rep")
	}
	if UseTwoPhase.String() != "2P" || UseRepartitioning.String() != "Rep" {
		t.Error("decision names wrong")
	}
}

func TestExpectedDistinctBasics(t *testing.T) {
	if got := ExpectedDistinct(1, 100); math.Abs(got-1) > 1e-9 {
		t.Errorf("one group: expected %v, want 1", got)
	}
	if got := ExpectedDistinct(1000, 0); got != 0 {
		t.Errorf("zero draws: %v", got)
	}
	// With n ≫ g, essentially all groups are seen.
	if got := ExpectedDistinct(50, 5000); got < 49.99 {
		t.Errorf("exhaustive sampling sees %v of 50 groups", got)
	}
	// With n ≪ g, almost every draw is new.
	if got := ExpectedDistinct(1e9, 100); math.Abs(got-100) > 0.01 {
		t.Errorf("sparse sampling: %v, want ≈100", got)
	}
}

// Property: ExpectedDistinct is monotone in n and bounded by min(g, n).
func TestExpectedDistinctBoundsProperty(t *testing.T) {
	f := func(g16, n16 uint16) bool {
		g, n := float64(g16%5000)+1, float64(n16%5000)+1
		d := ExpectedDistinct(g, n)
		if d < 0 || d > math.Min(g, n)+1e-9 {
			return false
		}
		return ExpectedDistinct(g, n+100) >= d-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Empirical check: ExpectedDistinct matches simulation within a few percent.
func TestExpectedDistinctMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const g, n, trials = 500, 1000, 200
	var total float64
	for tr := 0; tr < trials; tr++ {
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			seen[rng.Intn(g)] = true
		}
		total += float64(len(seen))
	}
	emp := total / trials
	pred := ExpectedDistinct(g, n)
	if math.Abs(emp-pred)/pred > 0.03 {
		t.Errorf("empirical %v vs predicted %v", emp, pred)
	}
}

func TestMisdetectionProbShrinksWithSample(t *testing.T) {
	const g, threshold = 5000.0, 320
	p1 := MisdetectionProb(g, 300, threshold)
	p2 := MisdetectionProb(g, 3200, threshold)
	p3 := MisdetectionProb(g, 10000, threshold)
	if !(p3 <= p2 && p2 <= p1) {
		t.Errorf("misdetection not shrinking: %v, %v, %v", p1, p2, p3)
	}
	if p1 != 1 {
		t.Errorf("a 300-tuple sample cannot certify a 320 threshold: p = %v, want 1", p1)
	}
	// The paper's 10× rule should make misdetection negligible.
	if p2 > 1e-6 {
		t.Errorf("10×threshold sample misdetection = %v, want < 1e-6", p2)
	}
	// An uninformative sample yields probability 1.
	if got := MisdetectionProb(g, 10, threshold); got != 1 {
		t.Errorf("tiny sample misdetection = %v, want 1", got)
	}
}

func TestChao1(t *testing.T) {
	// All groups seen many times: the sample is exhaustive, estimate =
	// observed.
	if got := Chao1(50, 0, 0); got != 50 {
		t.Errorf("exhaustive Chao1 = %v, want 50", got)
	}
	// Textbook case: f1²/(2·f2) correction.
	if got := Chao1(100, 40, 20); got != 100+40.0*40.0/40.0 {
		t.Errorf("Chao1 = %v, want 140", got)
	}
	// No doubletons: bias-corrected form.
	if got := Chao1(10, 5, 0); got != 10+5.0*4.0/2.0 {
		t.Errorf("Chao1(no f2) = %v, want 20", got)
	}
	// Garbage in, zero out.
	if got := Chao1(-1, 2, 3); got != 0 {
		t.Errorf("Chao1(negative) = %v", got)
	}
}

func TestChao1EstimatesHiddenGroups(t *testing.T) {
	// Draw a small sample from many groups; the raw distinct count is far
	// below the truth while Chao1 gets much closer (it is a lower bound,
	// so it should land between).
	rng := rand.New(rand.NewSource(11))
	const g, n = 20_000, 4_000
	freq := map[int]int{}
	for i := 0; i < n; i++ {
		freq[rng.Intn(g)]++
	}
	observed, f1, f2 := len(freq), 0, 0
	for _, c := range freq {
		switch c {
		case 1:
			f1++
		case 2:
			f2++
		}
	}
	est := Chao1(observed, f1, f2)
	if est <= float64(observed) {
		t.Fatalf("Chao1 %v did not exceed observed %d", est, observed)
	}
	if est < 0.5*g || est > 1.5*g {
		t.Errorf("Chao1 = %v for true %d groups (observed %d)", est, g, observed)
	}
}

// fullTableProfile folds part into a table of bound entries until the table
// refuses a group, as an adaptive scan side does, and returns the count
// profile its switch sees: groups held, f1 of them seen once, f2 twice.
func fullTableProfile(part []tuple.Tuple, bound int) (observed, f1, f2 int) {
	tab := aggtable.New(bound)
	for _, tp := range part {
		if !tab.UpdateRaw(tp) {
			break
		}
	}
	var prof Profile
	tab.Each(func(_ tuple.Key, s tuple.AggState) { prof.Add(s.Count) })
	return tab.Len(), prof.F1, prof.F2
}

// ownerCounts is how many groups of want each of w owners holds.
func ownerCounts(want map[tuple.Key]tuple.AggState, w int) []int {
	n := make([]int, w)
	for k := range want {
		n[k.Dest(w)]++
	}
	return n
}

// The switch's projection, checked against the groups each owner really
// ends up with: close on uniform input at the spine's shapes and seeds,
// declined on OutputSkew's many-groups partition (every group listed once
// before any repeats, so the full table holds no count-2 group), and never
// above rows ÷ workers, however wild the profile.
func TestProjectOwnerGroups(t *testing.T) {
	shapes := []struct {
		workers      int
		rows, groups int64
		bound        int
	}{
		{2, 1 << 16, 1 << 15, 2048}, // live_many at 1/8 scale
		{2, 1 << 17, 1 << 16, 4096}, // live_many at 1/4 scale
		{4, 1 << 18, 1 << 15, 4096}, // selectivity 1/8
		{2, 1 << 20, 1 << 16, 4096}, // selectivity 1/16
	}
	for _, s := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			rel := workload.Uniform(s.workers, s.rows, s.groups, seed)
			truth := ownerCounts(rel.Reference(), s.workers)
			for p, part := range rel.PerNode {
				observed, f1, f2 := fullTableProfile(part, s.bound)
				est, ok := ProjectOwnerGroups(observed, f1, f2, int(s.rows), s.workers)
				name := fmt.Sprintf("w%d rows %d groups %d bound %d seed %d part %d (f1 %d, f2 %d)",
					s.workers, s.rows, s.groups, s.bound, seed, p, f1, f2)
				if !ok {
					t.Errorf("%s: declined", name)
					continue
				}
				for d, n := range truth {
					if e := math.Abs(float64(est)/float64(n) - 1); e > 0.25 {
						t.Errorf("%s: est %d, owner %d holds %d (off by %.0f%%)", name, est, d, n, 100*e)
					}
				}
			}
		}
	}

	for seed := int64(1); seed <= 4; seed++ {
		rel := workload.OutputSkew(2, 1<<17, 1<<14+1, seed)
		observed, f1, f2 := fullTableProfile(rel.PerNode[1], 2048)
		if est, ok := ProjectOwnerGroups(observed, f1, f2, 1<<17, 2); ok {
			t.Errorf("OutputSkew seed %d: projected %d/owner from f1 %d, f2 %d; want declined", seed, est, f1, f2)
		}
	}

	for _, rows := range []int{1, 100, 1 << 12, 1 << 20} {
		for _, workers := range []int{1, 2, 7} {
			for _, f2 := range []int{MinDoubletons, 1 << 10} {
				for _, f1 := range []int{0, 1 << 10, 1 << 20} {
					est, _ := ProjectOwnerGroups(f1+f2, f1, f2, rows, workers)
					if est > rows/workers {
						t.Errorf("rows %d, workers %d, f1 %d, f2 %d: est %d over rows/workers", rows, workers, f1, f2, est)
					}
				}
			}
		}
	}
}

// A-Rep's rule: fall back when the groups a domain puts in a node's rows
// fit the bound, never at bound 0; a domain larger than the bound can
// still fit when the rows are few.
func TestFallBack(t *testing.T) {
	for _, c := range []struct {
		domain      float64
		rows, bound int
		est         int
		fell        bool
	}{
		{1024, 1 << 16, 16384, 1024, true},
		{1 << 18, 1 << 16, 16384, 57987, false},
		{16384, 1 << 20, 16384, 16384, true},
		{16385, 1 << 20, 16384, 16385, false},
		{1 << 20, 1000, 1000, 1000, true},
		{5, 100, 0, 5, false},
	} {
		est, fell := FallBack(c.domain, c.rows, c.bound)
		if est != c.est || fell != c.fell {
			t.Errorf("domain %v, rows %d, bound %d: est %d, fell back %v; want %d, %v",
				c.domain, c.rows, c.bound, est, fell, c.est, c.fell)
		}
	}
	if got := Verdict(10, 16, true, Profile{F1: 4, F2: 2}); got != "fell back: est 10 ≤ bound 16 (f1 4, f2 2)" {
		t.Errorf("fell back: %q", got)
	}
	if got := Verdict(36, 16, false, Profile{F1: 8}); got != "stayed Rep: est 36 > 16 (f1 8, f2 0)" {
		t.Errorf("stayed Rep: %q", got)
	}
}
