package harness

import (
	"fmt"

	"parallelagg/internal/core"
	"parallelagg/internal/optimizer"
	"parallelagg/internal/params"
	"parallelagg/internal/workload"
)

// Extension experiments: not figures of the paper, but direct follow-ups
// to its discussion sections. "ext-opt" quantifies the estimation-error
// motivation of Section 1; "ext-sort" evaluates the sort-based alternative
// the paper cites ([BBDW83]) against hash aggregation; "ext-inputskew"
// measures Section 6.1's input-skew discussion, which the paper analyses
// but never plots.

// ExtOpt regenerates the estimation-error sensitivity experiment: a static
// cost-based optimizer picks among {C-2P, 2P, Rep} from an estimate that is
// off by the x-axis factor, and pays the chosen algorithm's cost at the
// TRUE selectivity. The adaptive algorithm's cost is flat.
func (r Runner) ExtOpt() *Experiment {
	prm := params.Default()
	trueGroups := prm.Tuples / 4 // deep in Rep territory
	factors := []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 1e1, 1e2}
	rows := optimizer.Sweep(prm, trueGroups, factors)
	e := &Experiment{
		ID:     "ext-opt",
		Title:  fmt.Sprintf("Static optimizer vs estimation error (true groups = %d)", trueGroups),
		XLabel: "estimate/true",
		YLabel: "seconds",
		Notes:  "The static pick pays for wrong estimates; Adaptive Two Phase does not.",
	}
	var static, adaptive, oracle Series
	static.Name, adaptive.Name, oracle.Name = "Static-pick", "A-2P", "Oracle"
	for _, row := range rows {
		static.Points = append(static.Points, Point{X: row.ErrorFactor, Y: row.StaticCost})
		adaptive.Points = append(adaptive.Points, Point{X: row.ErrorFactor, Y: row.AdaptiveCost})
		oracle.Points = append(oracle.Points, Point{X: row.ErrorFactor, Y: row.OracleCost})
	}
	e.Series = []Series{static, adaptive, oracle}
	return e
}

// ExtSort regenerates the hash-versus-sort aggregation comparison: Two
// Phase with the paper's hash aggregation against Sort-2P, the same driver
// with the sort-based aggregation of Bitton et al. Both run on fig8's
// relations, so the Hash-2P series is fig8's 2P series.
func (r Runner) ExtSort() (*Experiment, error) {
	prm := r.simParams()
	e := &Experiment{
		ID:     "ext-sort",
		Title:  fmt.Sprintf("Hash vs sort-based aggregation (8 nodes, %d tuples)", prm.Tuples),
		XLabel: "groups",
		YLabel: "seconds",
		Notes:  "Two Phase with hash or sort aggregation; sort pays n·log n and run spooling.",
	}
	sweep := simGroupSweep(prm)
	kinds := []struct {
		name string
		alg  core.Algorithm
	}{{"Hash-2P", core.TwoPhase}, {"Sort-2P", core.Sort2P}}
	for _, kind := range kinds {
		s := Series{Name: kind.name}
		for i, g := range sweep {
			rel := workload.Uniform(prm.N, prm.Tuples, g, r.Seed+int64(i))
			y, err := runSim(prm, rel, kind.alg, r.Seed)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: float64(g), Y: y})
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// ExtSimScaleup validates the scaleup claims of Figures 5 and 6 on the
// executing simulator rather than the closed-form model: per-node data and
// memory are held constant while the cluster grows, at the paper's high
// selectivity (0.25), on the fast network the scaleup figures assume. The
// adaptive algorithm must stay near-flat while the centralized
// coordinator's curve climbs with N.
func (r Runner) ExtSimScaleup() (*Experiment, error) {
	base := r.simParams()
	base.Network = params.LatencyNet
	perNode := base.Tuples / int64(base.N)
	e := &Experiment{
		ID:     "ext-simscaleup",
		Title:  fmt.Sprintf("Simulated scaleup, selectivity 0.25 (%d tuples/node, fast net)", perNode),
		XLabel: "nodes",
		YLabel: "seconds",
		Notes:  "Per-node data fixed; flat curves = ideal scaleup (execution analogue of Figures 5-6).",
	}
	algs := []core.Algorithm{core.C2P, core.TwoPhase, core.Rep, core.A2P}
	ns := []int{1, 2, 4, 8, 16}
	series := make([]Series, len(algs))
	for i, alg := range algs {
		series[i] = Series{Name: alg.String()}
	}
	for xi, n := range ns {
		prm := base
		prm.N = n
		prm.Tuples = perNode * int64(n)
		rel := workload.Uniform(n, prm.Tuples, prm.Tuples/4, r.Seed+int64(xi))
		for i, alg := range algs {
			y, err := runSim(prm, rel, alg, r.Seed)
			if err != nil {
				return nil, err
			}
			series[i].Points = append(series[i].Points, Point{X: float64(n), Y: y})
		}
	}
	e.Series = series
	return e, nil
}

// ExtBcast regenerates the broadcast-baseline comparison: the Bitton et
// al. [BBDW83] broadcast algorithm against Repartitioning and Adaptive Two
// Phase. The paper dismisses broadcasting in one sentence; the experiment
// shows the N× network bill that sentence stands on.
func (r Runner) ExtBcast() (*Experiment, error) {
	prm := r.simParams()
	e := &Experiment{
		ID:     "ext-bcast",
		Title:  fmt.Sprintf("Broadcast baseline (8 nodes, Ethernet, %d tuples)", prm.Tuples),
		XLabel: "groups",
		YLabel: "seconds",
		Notes:  "Broadcast ships every tuple N times; the paper dismissed it for a reason.",
	}
	sweep := simGroupSweep(prm)
	rels := make([]*workload.Relation, len(sweep))
	for i, g := range sweep {
		rels[i] = workload.Uniform(prm.N, prm.Tuples, g, r.Seed+int64(i))
	}
	for _, alg := range []core.Algorithm{core.Bcast, core.Rep, core.A2P} {
		s := Series{Name: alg.String()}
		for i, g := range sweep {
			y, err := runSim(prm, rels[i], alg, r.Seed)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: float64(g), Y: y})
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// ExtInputSkew regenerates the Section 6.1 discussion: one node holds a
// growing multiple of the others' tuples; the skewed node's extra scan I/O
// bounds every algorithm, but Repartitioning spreads the aggregation work
// while the Two Phase family concentrates it.
func (r Runner) ExtInputSkew() (*Experiment, error) {
	prm := r.simParams()
	groups := int64(prm.HashEntries) // mid-range group count
	e := &Experiment{
		ID:     "ext-inputskew",
		Title:  fmt.Sprintf("Input skew (8 nodes, %d tuples, %d groups)", prm.Tuples, groups),
		XLabel: "skew-factor",
		YLabel: "seconds",
		Notes:  "Node 0 holds skew-factor × the tuples of each other node.",
	}
	algs := []core.Algorithm{core.TwoPhase, core.Rep, core.A2P, core.ARep}
	factors := []float64{1, 2, 4, 8}
	rels := make([]*workload.Relation, len(factors))
	for i, f := range factors {
		rels[i] = workload.InputSkew(prm.N, prm.Tuples, groups, f, r.Seed+int64(i))
	}
	for _, alg := range algs {
		s := Series{Name: alg.String()}
		for i, f := range factors {
			y, err := runSim(prm, rels[i], alg, r.Seed)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: f, Y: y})
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}
