package harness

import (
	"fmt"
	"math"
)

// Check validates the qualitative claims the paper makes about the figure:
// who wins at the extremes, where the adaptive algorithms sit relative to
// the traditional envelope. A nil return means the regenerated data has the
// paper's shape.
func Check(e *Experiment) error {
	switch e.ID {
	case "fig1", "fig2":
		return checkTraditional(e)
	case "fig3", "fig4":
		return checkAdaptive(e, 1.6)
	case "fig5":
		return checkScaleup(e, 1.3, false)
	case "fig6":
		return checkScaleup(e, 1.4, true)
	case "fig7":
		return checkSampleTradeoff(e)
	case "fig8":
		return checkAdaptive(e, 1.6)
	case "fig9":
		return checkOutputSkew(e)
	case "ext-opt":
		return checkOptimizerSensitivity(e)
	case "ext-sort":
		return checkHashVsSort(e)
	case "ext-inputskew":
		return checkInputSkew(e)
	case "ext-bcast":
		return checkBroadcast(e)
	case "ext-simscaleup":
		return checkSimScaleup(e)
	default:
		return fmt.Errorf("harness: no check for %q", e.ID)
	}
}

// checkOptimizerSensitivity: a perfect estimate matches the oracle, a bad
// underestimate pays real regret, and the adaptive algorithm stays near
// the oracle at every error factor.
func checkOptimizerSensitivity(e *Experiment) error {
	static, err := e.Get("Static-pick")
	if err != nil {
		return err
	}
	adaptive, err := e.Get("A-2P")
	if err != nil {
		return err
	}
	oracle, err := e.Get("Oracle")
	if err != nil {
		return err
	}
	op, _ := oracle.Y(1)
	if sp, _ := static.Y(1); sp > op*1.001 {
		return fmt.Errorf("%s: perfect estimate has regret ×%.2f", e.ID, sp/op)
	}
	if sp, _ := static.Y(1e-4); sp < op*1.15 {
		return fmt.Errorf("%s: 10000x underestimate has regret only ×%.2f", e.ID, sp/op)
	}
	for _, p := range adaptive.Points {
		if p.Y > op*1.3 {
			return fmt.Errorf("%s: A-2P at factor %v = %.2fs, oracle %.2fs", e.ID, p.X, p.Y, op)
		}
	}
	return nil
}

// checkHashVsSort: Sort-2P, the Two Phase driver with sort-based
// aggregation, pays more than hash aggregation at every group count.
func checkHashVsSort(e *Experiment) error {
	hash, err := e.Get("Hash-2P")
	if err != nil {
		return err
	}
	srt, err := e.Get("Sort-2P")
	if err != nil {
		return err
	}
	for _, p := range hash.Points {
		sy, err := srt.Y(p.X)
		if err != nil {
			return err
		}
		if sy <= p.Y {
			return fmt.Errorf("%s: sort (%.2fs) not above hash (%.2fs) at %v groups", e.ID, sy, p.Y, p.X)
		}
	}
	return nil
}

// checkBroadcast: the broadcast baseline loses to Repartitioning at every
// group count — the N× wire bill the paper's dismissal rests on.
func checkBroadcast(e *Experiment) error {
	bc, err := e.Get("Bcast")
	if err != nil {
		return err
	}
	rep, err := e.Get("Rep")
	if err != nil {
		return err
	}
	for _, p := range bc.Points {
		ry, err := rep.Y(p.X)
		if err != nil {
			return err
		}
		if p.Y <= ry {
			return fmt.Errorf("%s: Bcast (%.2fs) beat Rep (%.2fs) at %v groups", e.ID, p.Y, ry, p.X)
		}
	}
	return nil
}

// checkSimScaleup: in execution, like in the model, the adaptive algorithm
// scales near-ideally at high selectivity while C-2P's coordinator grows
// with the cluster.
func checkSimScaleup(e *Experiment) error {
	a2p, err := e.Get("A-2P")
	if err != nil {
		return err
	}
	if r := lastX(a2p).Y / firstX(a2p).Y; r > 1.8 {
		return fmt.Errorf("%s: A-2P degrades ×%.2f from N=%v to N=%v", e.ID, r, firstX(a2p).X, lastX(a2p).X)
	}
	c2p, err := e.Get("C-2P")
	if err != nil {
		return err
	}
	rc := lastX(c2p).Y / firstX(c2p).Y
	ra := lastX(a2p).Y / firstX(a2p).Y
	if rc < ra*1.5 {
		return fmt.Errorf("%s: C-2P degradation ×%.2f not clearly worse than A-2P ×%.2f", e.ID, rc, ra)
	}
	return nil
}

// checkInputSkew: every algorithm degrades with input skew (the skewed
// node's scan I/O bounds everyone), and the Two Phase family degrades at
// least as much as Repartitioning, which spreads the aggregation work.
func checkInputSkew(e *Experiment) error {
	ratio := func(name string) (float64, error) {
		s, err := e.Get(name)
		if err != nil {
			return 0, err
		}
		return lastX(s).Y / firstX(s).Y, nil
	}
	for _, name := range []string{"2P", "Rep", "A-2P", "A-Rep"} {
		r, err := ratio(name)
		if err != nil {
			return err
		}
		if r < 1.2 {
			return fmt.Errorf("%s: %s degraded only ×%.2f under 8x input skew", e.ID, name, r)
		}
	}
	r2p, _ := ratio("2P")
	rrep, _ := ratio("Rep")
	if r2p < rrep*0.9 {
		return fmt.Errorf("%s: 2P degradation ×%.2f markedly below Rep ×%.2f", e.ID, r2p, rrep)
	}
	return nil
}

func lastX(s *Series) Point  { return s.Points[len(s.Points)-1] }
func firstX(s *Series) Point { return s.Points[0] }

// checkTraditional: 2P wins at few groups, Rep wins at many groups, and
// C-2P is the worst of all at many groups.
func checkTraditional(e *Experiment) error {
	twoP, err := e.Get("2P")
	if err != nil {
		return err
	}
	rep, err := e.Get("Rep")
	if err != nil {
		return err
	}
	c2p, err := e.Get("C-2P")
	if err != nil {
		return err
	}
	if f2, fr := firstX(twoP).Y, firstX(rep).Y; f2 >= fr {
		return fmt.Errorf("%s: at %v groups 2P (%.2fs) should beat Rep (%.2fs)", e.ID, firstX(twoP).X, f2, fr)
	}
	if l2, lr := lastX(twoP).Y, lastX(rep).Y; lr >= l2 {
		return fmt.Errorf("%s: at %v groups Rep (%.2fs) should beat 2P (%.2fs)", e.ID, lastX(rep).X, lr, l2)
	}
	if lc, l2 := lastX(c2p).Y, lastX(twoP).Y; lc <= l2 {
		return fmt.Errorf("%s: at many groups C-2P (%.2fs) should be worse than 2P (%.2fs)", e.ID, lc, l2)
	}
	return nil
}

// checkAdaptive: A-2P and A-Rep track the lower envelope of {2P, Rep}
// within the tolerance everywhere.
func checkAdaptive(e *Experiment, tol float64) error {
	twoP, err := e.Get("2P")
	if err != nil {
		return err
	}
	rep, err := e.Get("Rep")
	if err != nil {
		return err
	}
	a2p, err := e.Get("A-2P")
	if err != nil {
		return err
	}
	arep, err := e.Get("A-Rep")
	if err != nil {
		return err
	}
	for _, s := range []*Series{a2p, arep} {
		for _, p := range s.Points {
			y2, err2 := twoP.Y(p.X)
			yr, errr := rep.Y(p.X)
			if err2 != nil || errr != nil {
				continue
			}
			env := math.Min(y2, yr)
			if p.Y > env*tol {
				return fmt.Errorf("%s: %s at %v groups = %.2fs, envelope %.2fs (tol ×%.2f)", e.ID, s.Name, p.X, p.Y, env, tol)
			}
		}
	}
	return nil
}

// checkScaleup: the adaptive algorithms stay near-flat as N grows;
// at high selectivity the centralized coordinator must visibly degrade.
func checkScaleup(e *Experiment, tol float64, c2pDegrades bool) error {
	for _, name := range []string{"A-2P", "A-Rep"} {
		s, err := e.Get(name)
		if err != nil {
			return err
		}
		f, l := firstX(s), lastX(s)
		if l.Y > f.Y*tol {
			return fmt.Errorf("%s: %s degrades ×%.2f from N=%v to N=%v (tol ×%.2f)",
				e.ID, name, l.Y/f.Y, f.X, l.X, tol)
		}
	}
	if c2pDegrades {
		s, err := e.Get("C-2P")
		if err != nil {
			return err
		}
		if r := lastX(s).Y / firstX(s).Y; r < 3 {
			return fmt.Errorf("%s: C-2P scaleup degradation ×%.2f, expected ≥3 at high selectivity", e.ID, r)
		}
	}
	return nil
}

// checkSampleTradeoff: at one group the smallest sample is the cheapest
// Samp variant; every variant approaches Rep at the top end.
func checkSampleTradeoff(e *Experiment) error {
	small, err := e.Get("Samp-3200")
	if err != nil {
		return err
	}
	large, err := e.Get("Samp-320000")
	if err != nil {
		return err
	}
	if firstX(small).Y >= firstX(large).Y {
		return fmt.Errorf("%s: small sample (%.2fs) should be cheaper than large (%.2fs) at 1 group",
			e.ID, firstX(small).Y, firstX(large).Y)
	}
	rep, err := e.Get("Rep")
	if err != nil {
		return err
	}
	for _, s := range []*Series{small, large} {
		if lastX(s).Y < lastX(rep).Y {
			return fmt.Errorf("%s: %s beats Rep at the top end — sampling overhead vanished", e.ID, s.Name)
		}
	}
	return nil
}

// checkOutputSkew: the paper's headline — under output skew both adaptive
// algorithms beat both traditional ones once the unskewed nodes overflow.
func checkOutputSkew(e *Experiment) error {
	twoP, err := e.Get("2P")
	if err != nil {
		return err
	}
	rep, err := e.Get("Rep")
	if err != nil {
		return err
	}
	a2p, err := e.Get("A-2P")
	if err != nil {
		return err
	}
	arep, err := e.Get("A-Rep")
	if err != nil {
		return err
	}
	p := lastX(a2p)
	env := math.Min(lastX(twoP).Y, lastX(rep).Y)
	if p.Y >= env {
		return fmt.Errorf("%s: A-2P (%.2fs) should beat best traditional (%.2fs) at %v groups",
			e.ID, p.Y, env, p.X)
	}
	if q := lastX(arep); q.Y >= env {
		return fmt.Errorf("%s: A-Rep (%.2fs) should beat best traditional (%.2fs) at %v groups",
			e.ID, q.Y, env, q.X)
	}
	return nil
}
