// Package simclock forbids wall-clock time in DES-simulated packages.
//
// The simulator's results (and every figure the harness reproduces) are
// only meaningful because simulated code advances des.Proc's virtual
// clock: a single time.Now or time.Sleep inside a simulated node makes
// run output depend on host scheduling and destroys reproducibility.
// The real-networking layer (internal/dist) and the measurement harness
// legitimately use the wall clock and are out of scope.
package simclock

import (
	"go/ast"

	"parallelagg/internal/analysis"
)

// SimulatedPackages lists the package-path suffixes where only virtual
// time is valid. Subpackages are covered automatically.
var SimulatedPackages = []string{
	"internal/des",
	"internal/core",
	"internal/cost",
}

// forbidden names the package time functions that read or wait on the
// wall clock. Types (time.Duration, time.Time) and pure constructors
// (time.Unix, time.Date) remain usable.
var forbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

var Analyzer = &analysis.Analyzer{
	Name: "simclock",
	Doc: "forbid wall-clock time (time.Now, time.Sleep, ...) in DES-simulated packages\n\n" +
		"Simulated code must derive all timing from the discrete-event simulator's\n" +
		"virtual clock (des.Proc.Now, des.Proc.Delay); wall-clock reads make runs\n" +
		"irreproducible.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.Pkg.Path(), SimulatedPackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkg := analysis.ImportedPackage(pass.TypesInfo, id)
			if pkg == nil || pkg.Path() != "time" || !forbidden[sel.Sel.Name] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s in DES-simulated package %s: use the virtual clock (des.Proc.Now / des.Proc.Delay)",
				sel.Sel.Name, pass.Pkg.Path())
			return true
		})
	}
	return nil
}
