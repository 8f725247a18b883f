// Package floatdet flags floating-point accumulation performed in map
// iteration order — the classic nondeterministic SUM/AVG merge.
//
// Float addition is not associative: summing the same multiset of
// float64 values in two different orders can produce two different
// results, and Go randomizes map iteration order on every run. So
//
//	for _, v := range m {
//		sum += v // run-to-run nondeterministic
//	}
//
// is flagged anywhere in the module, while the same accumulation over a
// sorted key slice is clean (the order is fixed first), and so is
// merging into a cell addressed by the loop key itself —
// dst[k] += v touches each cell exactly once per source, so order
// cannot matter. The repo-wide fix used by the aggregation paths is
// stronger still: keep Sum as int64 in tuple.AggState and derive AVG
// as float only once, at result-assembly time.
package floatdet

import (
	"go/ast"
	"go/token"
	"go/types"

	"parallelagg/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "floatdet",
	Doc: "flag float32/float64 accumulation inside a map-range loop\n\n" +
		"Float addition is order-sensitive and map order is randomized, so\n" +
		"accumulating floats while ranging over a map yields run-to-run different\n" +
		"sums. Sort the keys and range over the sorted slice, or accumulate in\n" +
		"integers and convert once at the end.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		seen := make(map[*ast.AssignStmt]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !analysis.IsMapRange(info, rng) {
				return true
			}
			keyObj := rangeKeyObject(info, rng)
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if !ok || seen[as] {
					return true
				}
				if lhs, ok := floatAccumulation(info, as); ok && !keyAddressed(info, lhs, keyObj) {
					seen[as] = true
					pass.Reportf(as.Pos(),
						"float accumulation in map iteration order: float addition is not associative and map order is randomized, so this sum differs run to run (range over sorted keys, or accumulate in int64)")
				}
				return true
			})
			return true
		})
	}
	return nil
}

// floatAccumulation reports whether as accumulates into a float lvalue:
// x += v, x -= v, x *= v, x /= v, or x = x + v / x = v + x.
func floatAccumulation(info *types.Info, as *ast.AssignStmt) (ast.Expr, bool) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if isFloat(info, as.Lhs[0]) {
			return as.Lhs[0], true
		}
	case token.ASSIGN:
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isFloat(info, as.Lhs[0]) {
			return nil, false
		}
		bin, ok := as.Rhs[0].(*ast.BinaryExpr)
		if !ok {
			return nil, false
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
		default:
			return nil, false
		}
		lroot := analysis.RootObject(info, as.Lhs[0])
		if lroot == nil {
			return nil, false
		}
		if analysis.RootObject(info, bin.X) == lroot || analysis.RootObject(info, bin.Y) == lroot {
			return as.Lhs[0], true
		}
	}
	return nil, false
}

func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func rangeKeyObject(info *types.Info, rng *ast.RangeStmt) types.Object {
	id, ok := rng.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return info.ObjectOf(id)
}

// keyAddressed reports whether the accumulation cell is indexed by
// exactly the loop key variable: dst[k] += v visits each cell once per
// source map, so iteration order cannot change the result. Any other
// index (a derived group id, a constant) can collide across iterations
// and stays flagged.
func keyAddressed(info *types.Info, lhs ast.Expr, keyObj types.Object) bool {
	if keyObj == nil {
		return false
	}
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := ix.Index.(*ast.Ident)
	return ok && info.ObjectOf(id) == keyObj
}
