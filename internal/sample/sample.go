// Package sample implements the estimation rules behind the Sampling
// algorithm of Section 3.1: how large a random sample must be to detect
// whether a relation has more groups than a crossover threshold, and the
// decision rule applied to the sampled group count. The sample-size rule is
// the paper's reading of the Erdős–Rényi coupon-collector bound: about ten
// times the crossover threshold suffices.
package sample

import (
	"fmt"
	"math"
)

// RequiredTuples returns the sample size (in tuples, across the whole
// cluster) needed to decide a crossover threshold of the given number of
// groups — the paper's "about 10 times the crossover threshold".
func RequiredTuples(crossoverThreshold int) int {
	if crossoverThreshold < 1 {
		return 10
	}
	return 10 * crossoverThreshold
}

// Decision is the outcome of the sampling estimate.
type Decision int

const (
	// UseTwoPhase: few groups — local aggregation compresses well.
	UseTwoPhase Decision = iota
	// UseRepartitioning: many groups — avoid duplicated aggregation work
	// and double memory pressure.
	UseRepartitioning
)

// String returns "2P" or "Rep".
func (d Decision) String() string {
	if d == UseTwoPhase {
		return "2P"
	}
	return "Rep"
}

// Decide applies the crossover rule to the distinct group count observed in
// the sample. The sampled count is a lower bound on the true count, so
// observing at least the threshold is conclusive; observing fewer with an
// adequate sample size means the true count is very likely small.
func Decide(sampledDistinct, crossoverThreshold int) Decision {
	if sampledDistinct >= crossoverThreshold {
		return UseRepartitioning
	}
	return UseTwoPhase
}

// Chao1 estimates the true number of distinct groups from a sample's
// frequency profile: observed + f1²/(2·f2), where f1 is the number of
// groups seen exactly once in the sample and f2 the number seen exactly
// twice. It is the classic lower-bound species estimator from the
// number-of-species literature the paper cites ([BF93]); it corrects the
// raw distinct count's tendency to underestimate when the sample is small
// relative to the group count. With no doubletons the bias-corrected form
// observed + f1·(f1−1)/2 is used.
func Chao1(observed, singletons, doubletons int) float64 {
	if observed < 0 || singletons < 0 || doubletons < 0 {
		return 0
	}
	if doubletons == 0 {
		return float64(observed) + float64(singletons)*float64(singletons-1)/2
	}
	return float64(observed) + float64(singletons)*float64(singletons)/(2*float64(doubletons))
}

// ExpectedDistinct returns the expected number of distinct groups observed
// in n uniform draws from g groups: g·(1 − (1 − 1/g)^n), computed stably.
func ExpectedDistinct(g, n float64) float64 {
	if g <= 0 || n <= 0 {
		return 0
	}
	// (1-1/g)^n = exp(n·log1p(-1/g)); for large g this is ≈ exp(-n/g).
	return g * (1 - math.Exp(n*math.Log1p(-1/g)))
}

// MisdetectionProb bounds the probability that a sample of n tuples from a
// relation with g ≥ threshold groups shows fewer than threshold distinct
// values, using a Chernoff-style bound on the expected distinct count. It
// is 1 (no information) when the expectation is below the threshold.
func MisdetectionProb(g, n float64, threshold int) float64 {
	mu := ExpectedDistinct(g, n)
	th := float64(threshold)
	if mu <= th {
		return 1
	}
	// P[X < th] ≤ exp(−(mu−th)²/(2mu)) for negatively associated
	// indicators (occupancy counts).
	return math.Exp(-(mu - th) * (mu - th) / (2 * mu))
}

// Profile is the low end of a table's count profile: how many of its groups
// were seen exactly once (F1) and exactly twice (F2), Chao1's inputs.
type Profile struct{ F1, F2 int }

// Add counts one group seen count times.
func (p *Profile) Add(count int64) {
	switch count {
	case 1:
		p.F1++
	case 2:
		p.F2++
	}
}

// MinDoubletons is the fewest count-2 groups a full table must hold to be
// projected from: Chao1's f1²/(2·f2) moves by about 1/√f2 of itself, and a
// table without repeats (an output-skewed partition's) only says the groups
// outnumber it.
const MinDoubletons = 32

// ProjectOwnerGroups is an adaptive switch's estimate of each owner's groups,
// the §3.1 Sampling estimate made from the table A-2P fills anyway: Chao1
// over the full table's profile (observed groups, f1 seen once, f2 twice)
// estimates the domain, ExpectedDistinct projects it over all rows, and the
// owners split that, capped at rows/owners. ok is false when f2 is too small.
func ProjectOwnerGroups(observed, f1, f2, rows, owners int) (est int, ok bool) {
	if f2 < MinDoubletons {
		return 0, false
	}
	g := ExpectedDistinct(Chao1(observed, f1, f2), float64(rows))
	return min(int(g)/owners, rows/owners), true
}

// FallBack is Adaptive Repartitioning's rule at the end of its window of
// bound/2 tuples: a node falls back to A-2P when a domain of the given size
// puts few enough groups in its rows for the table's bound to hold, the
// paper's "too few groups". It returns that projection too. At bound 0
// there is no window and no fallback.
func FallBack(domain float64, rows, bound int) (est int, ok bool) {
	est = int(math.Ceil(ExpectedDistinct(domain, float64(rows))))
	return est, bound > 0 && est <= bound
}

// Verdict is FallBack's decision as both clocks' traces print it, with the
// window's count profile p.
func Verdict(est, bound int, fell bool, p Profile) string {
	if fell {
		return fmt.Sprintf("fell back: est %d ≤ bound %d (f1 %d, f2 %d)", est, bound, p.F1, p.F2)
	}
	return fmt.Sprintf("stayed Rep: est %d > %d (f1 %d, f2 %d)", est, bound, p.F1, p.F2)
}
