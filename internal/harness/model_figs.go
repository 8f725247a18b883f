package harness

import (
	"parallelagg/internal/cost"
	"parallelagg/internal/params"
)

// groupSweep returns the paper's x-axis: group counts from 1 (scalar
// aggregation) to |R|/2 (duplicate elimination) by decades.
func groupSweep(tuples int64) []float64 {
	var gs []float64
	for g := 1.0; g < float64(tuples)/2; g *= 10 {
		gs = append(gs, g)
	}
	gs = append(gs, float64(tuples)/2)
	return gs
}

// modelSeries evaluates f over the group sweep of prm.
func modelSeries(prm params.Params, name string, f func(s float64) cost.Breakdown) Series {
	var pts []Point
	for _, g := range groupSweep(prm.Tuples) {
		pts = append(pts, Point{X: g, Y: f(g / float64(prm.Tuples)).Total()})
	}
	return Series{Name: name, Points: pts}
}

// Fig1 regenerates Figure 1: the traditional algorithms (C-2P, 2P, Rep) on
// the 32-node configuration, with Rep shown on both the high-bandwidth
// network and the shared-bus Ethernet to expose the network sensitivity.
func (r Runner) Fig1() *Experiment {
	prm := params.Default()
	fast := cost.New(prm)
	eth := prm
	eth.Network = params.SharedBusNet
	slow := cost.New(eth)
	return &Experiment{
		ID:     "fig1",
		Title:  "Performance of traditional algorithms (32 nodes, 8M tuples)",
		XLabel: "groups",
		YLabel: "seconds",
		Notes:  "C-2P and 2P collapse at many groups; Rep wastes processors at few groups.",
		Series: []Series{
			modelSeries(prm, "C-2P", fast.C2P),
			modelSeries(prm, "2P", fast.TwoPhase),
			modelSeries(prm, "Rep", fast.Rep),
			modelSeries(prm, "Rep-ethernet", slow.Rep),
		},
	}
}

// Fig2 regenerates Figure 2: the same algorithms inside an operator
// pipeline — no base-relation scan or result-store I/O.
func (r Runner) Fig2() *Experiment {
	prm := params.Default()
	m := cost.New(prm)
	m.NoIO = true
	return &Experiment{
		ID:     "fig2",
		Title:  "Traditional algorithms in an operator pipeline (no scan/store I/O)",
		XLabel: "groups",
		YLabel: "seconds",
		Notes:  "Without scan I/O to hide behind, 2P's duplicated work and overflow dominate sooner.",
		Series: []Series{
			modelSeries(prm, "C-2P", m.C2P),
			modelSeries(prm, "2P", m.TwoPhase),
			modelSeries(prm, "Rep", m.Rep),
		},
	}
}

// Fig3 regenerates Figure 3: the adaptive algorithms against 2P and Rep on
// the fast-network 32-node configuration.
func (r Runner) Fig3() *Experiment {
	prm := params.Default()
	m := cost.New(prm)
	cross := 100 * prm.N
	return &Experiment{
		ID:     "fig3",
		Title:  "Relative performance of the adaptive approaches (32 nodes, fast network)",
		XLabel: "groups",
		YLabel: "seconds",
		Notes:  "All three adaptive algorithms track the lower envelope of 2P and Rep.",
		Series: []Series{
			modelSeries(prm, "2P", m.TwoPhase),
			modelSeries(prm, "Rep", m.Rep),
			modelSeries(prm, "Samp", func(s float64) cost.Breakdown { return m.Samp(s, 10*cross) }),
			modelSeries(prm, "A-2P", m.A2P),
			modelSeries(prm, "A-Rep", func(s float64) cost.Breakdown { return m.ARep(s) }),
		},
	}
}

// Fig4 regenerates Figure 4: the same comparison on the 8-node,
// limited-bandwidth (Ethernet) configuration with a 2M-tuple relation.
func (r Runner) Fig4() *Experiment {
	prm := params.Implementation()
	m := cost.New(prm)
	cross := 100 * prm.N
	return &Experiment{
		ID:     "fig4",
		Title:  "Performance on a low-bandwidth network (8 nodes, Ethernet, 2M tuples)",
		XLabel: "groups",
		YLabel: "seconds",
		Notes:  "The shared bus makes repartitioning expensive; A-2P repartitions only when it would otherwise spill.",
		Series: []Series{
			modelSeries(prm, "2P", m.TwoPhase),
			modelSeries(prm, "Rep", m.Rep),
			modelSeries(prm, "Samp", func(s float64) cost.Breakdown { return m.Samp(s, 10*cross) }),
			modelSeries(prm, "A-2P", m.A2P),
			modelSeries(prm, "A-Rep", func(s float64) cost.Breakdown { return m.ARep(s) }),
		},
	}
}

// scaleupSeries evaluates an algorithm's time as N grows with per-node data
// held constant (the paper's scaleup experiments).
func scaleupSeries(name string, sel float64, f func(m *cost.Model, s float64) float64) Series {
	perNode := params.Default().Tuples / int64(params.Default().N) // 250K
	var pts []Point
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		prm := params.Default()
		prm.N = n
		prm.Tuples = perNode * int64(n)
		pts = append(pts, Point{X: float64(n), Y: f(cost.New(prm), sel)})
	}
	return Series{Name: name, Points: pts}
}

func scaleupExperiment(id, title string, sel float64) *Experiment {
	return &Experiment{
		ID:     id,
		Title:  title,
		XLabel: "nodes",
		YLabel: "seconds",
		Notes:  "Per-node data fixed at 250K tuples; flat curves = ideal scaleup.",
		Series: []Series{
			scaleupSeries("C-2P", sel, func(m *cost.Model, s float64) float64 { return m.C2P(s).Total() }),
			scaleupSeries("2P", sel, func(m *cost.Model, s float64) float64 { return m.TwoPhase(s).Total() }),
			scaleupSeries("Rep", sel, func(m *cost.Model, s float64) float64 { return m.Rep(s).Total() }),
			scaleupSeries("Samp", sel, func(m *cost.Model, s float64) float64 {
				return m.Samp(s, 10*100*m.P.N).Total()
			}),
			scaleupSeries("A-2P", sel, func(m *cost.Model, s float64) float64 { return m.A2P(s).Total() }),
			scaleupSeries("A-Rep", sel, func(m *cost.Model, s float64) float64 {
				return m.ARep(s).Total()
			}),
		},
	}
}

// Fig5 regenerates Figure 5: scaleup at selectivity 2.0e-6 (few groups).
func (r Runner) Fig5() *Experiment {
	return scaleupExperiment("fig5", "Scaleup, selectivity = 2.0e-6", 2.0e-6)
}

// Fig6 regenerates Figure 6: scaleup at selectivity 0.25 (many groups).
func (r Runner) Fig6() *Experiment {
	return scaleupExperiment("fig6", "Scaleup, selectivity = 0.25", 0.25)
}

// Fig7 regenerates Figure 7: the sample-size / performance trade-off of the
// Sampling algorithm on the 32-node configuration. Each series is one
// sample size; its decision threshold is sampleTuples/10 groups.
func (r Runner) Fig7() *Experiment {
	prm := params.Default()
	m := cost.New(prm)
	e := &Experiment{
		ID:     "fig7",
		Title:  "Sample size vs. performance trade-off (32 nodes)",
		XLabel: "groups",
		YLabel: "seconds",
		Notes:  "Bigger samples cost more up front but move the 2P/Rep crossover right.",
	}
	for _, st := range []int{3200, 32_000, 320_000} {
		st := st
		e.Series = append(e.Series, modelSeries(prm, "Samp-"+formatX(float64(st)),
			func(s float64) cost.Breakdown { return m.Samp(s, st) }))
	}
	e.Series = append(e.Series,
		modelSeries(prm, "2P", m.TwoPhase),
		modelSeries(prm, "Rep", m.Rep),
	)
	return e
}
