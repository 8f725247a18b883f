// Package maporder flags map iteration whose order can leak into
// observable output: the top determinism hazard in a simulator whose
// value rests on bit-for-bit reproducible runs.
//
// A `for range` over a map in the simulation and result-assembly
// packages (internal/des, internal/core, internal/dist, internal/aggtable,
// internal/kernel, internal/live) is flagged when its iteration order can reach an
// observable sink:
//
//   - directly: the body sends a loop-dependent value on a channel,
//     calls an emitting method (Send/Write/Encode/Print/...) with one,
//     or returns one (so which key you see varies run to run);
//   - indirectly: the body appends loop-dependent values to a slice
//     that later escapes the function (returned, passed to a call,
//     sent, or stored in a field) without being sorted on the way.
//
// The indirect half is flow-sensitive: a CFG is built for the function
// and "slice s holds data in map order" facts are propagated forward,
// killed by sort.Slice/slices.Sort on s — including the
// sort-every-bucket loop idiom — so the standard clean pattern
//
//	keys := make([]K, 0, len(m))
//	for k := range m {
//		keys = append(keys, k) // never escapes unsorted: clean
//	}
//	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
//	return keys
//
// produces no diagnostic, while sorting on only one branch of an if, or
// escaping before the sort, is still flagged.
package maporder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"parallelagg/internal/analysis"
	"parallelagg/internal/analysis/cfg"
)

// Packages scopes the analyzer to the layers where map order can reach
// simulated events, network frames, or assembled results.
var Packages = []string{
	"internal/des", "internal/core",
	"internal/dist", "internal/aggtable",
	"internal/kernel", "internal/live",
}

var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag map ranges whose iteration order can reach events, sends, or results\n\n" +
		"Go randomizes map iteration order, so any emission, channel send, output\n" +
		"write, or escaping slice append fed from a `for range m` is nondeterministic\n" +
		"across runs. Materialize the keys, sort them, and range over the sorted\n" +
		"slice — or sort the collected slice before it escapes the function.",
	Run: run,
}

// A fact says: the slice rooted at obj holds data appended in the
// iteration order of rng and has not been sorted since.
type fact struct {
	obj types.Object
	rng *ast.RangeStmt
}

type hazard struct {
	pos  token.Pos
	desc string
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.Pkg.Path(), Packages) {
		return nil
	}
	for _, f := range pass.Files {
		cfg.FuncBodies(f, func(body *ast.BlockStmt) {
			checkBody(pass, body)
		})
	}
	return nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	g := cfg.New(body)

	// Map ranges at statement level of this function; nested function
	// literals get their own graphs via FuncBodies.
	var ranges []*ast.RangeStmt
	for _, blk := range g.Blocks {
		for _, n := range blk.Stmts {
			if rng, ok := n.(*ast.RangeStmt); ok && analysis.IsMapRange(info, rng) {
				ranges = append(ranges, rng)
			}
		}
	}
	if len(ranges) == 0 {
		return
	}

	hazards := make(map[*ast.RangeStmt][]hazard)
	gens := make(map[ast.Node][]fact)
	for _, rng := range ranges {
		taint := analysis.RangeTaint(info, rng)
		directSinks(pass, rng, taint, hazards)
		collectAppendGens(info, rng, taint, gens)
	}
	headKills := collectLoopHeadKills(info, body)

	c := &checker{pass: pass, gens: gens, headKills: headKills, hazards: hazards}
	in := cfg.Forward(g, cfg.Problem[fact]{Transfer: c.transfer})

	// Reporting pass: replay each block from its solved entry facts,
	// checking every node for escapes before applying its transfer.
	for _, blk := range g.Blocks {
		facts := cfg.Facts[fact]{}
		for f := range in[blk] {
			facts.Add(f)
		}
		for _, n := range blk.Stmts {
			c.escapes(n, facts)
			c.transfer(n, facts)
		}
	}

	for _, rng := range ranges {
		hz := hazards[rng]
		if len(hz) == 0 {
			continue
		}
		sort.Slice(hz, func(i, j int) bool {
			if hz[i].pos != hz[j].pos {
				return hz[i].pos < hz[j].pos
			}
			return hz[i].desc < hz[j].desc
		})
		pass.Reportf(rng.For,
			"map iteration order reaches %s: Go randomizes map order, so this varies run to run (materialize and sort the keys, or sort the collected slice before it escapes)",
			hz[0].desc)
	}
}

// emitPrefixes are method-name prefixes treated as observable
// emissions when called with a loop-dependent argument.
var emitPrefixes = []string{
	"Write", "write", "Send", "send", "Emit", "emit", "Publish", "publish",
	"Print", "print", "Log", "log", "Report", "report", "Record", "record",
	"Encode", "encode", "Enqueue", "enqueue", "Push", "push",
}

func isEmitName(name string) bool {
	for _, p := range emitPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// directSinks flags order-dependent effects inside the loop body
// itself: every iteration emits, so no later sort can help.
func directSinks(pass *analysis.Pass, rng *ast.RangeStmt, taint map[types.Object]bool, hazards map[*ast.RangeStmt][]hazard) {
	info := pass.TypesInfo
	add := func(pos token.Pos, format string, args ...any) {
		hazards[rng] = append(hazards[rng], hazard{pos: pos,
			desc: fmt.Sprintf(format, args...) + fmt.Sprintf(" (line %d)", pass.Fset.Position(pos).Line)})
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if analysis.MentionsAny(info, n.Value, taint) {
				add(n.Pos(), "a channel send of a loop-dependent value")
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if analysis.MentionsAny(info, r, taint) {
					add(n.Pos(), "a return of a loop-dependent value")
					break
				}
			}
		case *ast.CallExpr:
			name, emits := emitCallName(info, n)
			if !emits {
				return true
			}
			for _, arg := range n.Args {
				if analysis.MentionsAny(info, arg, taint) {
					add(n.Pos(), "an emitting call to %s with a loop-dependent argument", name)
					break
				}
			}
		}
		return true
	})
}

// emitCallName classifies a call as an observable emission: a method
// (or package function) whose name starts with an emitting verb, any
// fmt print function, or the print/println builtins.
func emitCallName(info *types.Info, call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "print" || fun.Name == "println" {
			return fun.Name, true
		}
		if isEmitName(fun.Name) {
			return fun.Name, true
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if id, ok := fun.X.(*ast.Ident); ok {
			if pkg := analysis.ImportedPackage(info, id); pkg != nil {
				if pkg.Path() == "fmt" {
					return "fmt." + name, strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")
				}
				return pkg.Name() + "." + name, isEmitName(name)
			}
		}
		return name, isEmitName(name)
	}
	return "", false
}

// collectAppendGens records, per AssignStmt node, the facts generated
// by appends of loop-dependent values: x = append(x, v), x[i] =
// append(x[i], v), x := append(nil, v).
func collectAppendGens(info *types.Info, rng *ast.RangeStmt, taint map[types.Object]bool, gens map[ast.Node][]fact) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltin(info, call.Fun, "append") || len(call.Args) < 2 {
				continue
			}
			tainted := false
			for _, arg := range call.Args[1:] {
				if analysis.MentionsAny(info, arg, taint) {
					tainted = true
					break
				}
			}
			if !tainted {
				continue
			}
			if obj := analysis.RootObject(info, as.Lhs[i]); obj != nil {
				gens[as] = append(gens[as], fact{obj: obj, rng: rng})
			}
		}
		return true
	})
}

// collectLoopHeadKills finds loops whose body's direct statements sort
// an element of some slice — for b := range out { sort.Slice(out[b],
// ...) } — and attaches the kill to the loop head, so the sort counts
// on the zero-iteration path too (an empty out is trivially sorted).
// The kill node is the RangeStmt marker, or a ForStmt's condition.
func collectLoopHeadKills(info *types.Info, body *ast.BlockStmt) map[ast.Node][]types.Object {
	kills := make(map[ast.Node][]types.Object)
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		var at ast.Node
		switch n := n.(type) {
		case *ast.RangeStmt:
			loopBody, at = n.Body, n
		case *ast.ForStmt:
			loopBody = n.Body
			if n.Cond != nil {
				at = n.Cond
			}
		default:
			return true
		}
		if at == nil {
			return true
		}
		for _, s := range loopBody.List {
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if target, ok := analysis.SortCallTarget(info, call); ok {
				if obj := analysis.RootObject(info, target); obj != nil {
					kills[at] = append(kills[at], obj)
				}
			}
		}
		return true
	})
	return kills
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := info.ObjectOf(id).(*types.Builtin)
	return isB
}

type checker struct {
	pass      *analysis.Pass
	gens      map[ast.Node][]fact
	headKills map[ast.Node][]types.Object
	hazards   map[*ast.RangeStmt][]hazard
}

// transfer is the gen/kill function. Gens: tainted appends, plus alias
// propagation (q := s copies s's facts to q — monotone, so the solver
// still terminates). Kills: sort calls on the root, loop-head sort
// aggregation, and strong updates of plainly reassigned locals.
func (c *checker) transfer(n ast.Node, facts cfg.Facts[fact]) {
	info := c.pass.TypesInfo
	for _, obj := range c.headKills[n] {
		killRoot(facts, obj)
	}
	if _, ok := n.(*ast.RangeStmt); ok {
		return // loop-header marker: the body's statements transfer themselves
	}

	// Sort calls anywhere in this node (but not inside nested function
	// literals) establish sorted-ness for their target's root.
	walkNoFuncLit(n, func(x ast.Node) {
		if call, ok := x.(*ast.CallExpr); ok {
			if target, ok := analysis.SortCallTarget(info, call); ok {
				if obj := analysis.RootObject(info, target); obj != nil {
					killRoot(facts, obj)
				}
			}
		}
	})

	if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
		var adds []fact
		var strong []types.Object
		for i, lhs := range as.Lhs {
			id, plain := lhs.(*ast.Ident)
			if !plain || id.Name == "_" {
				continue
			}
			lobj := info.ObjectOf(id)
			if lobj == nil {
				continue
			}
			// Alias propagation: q := s, q := s[i:], q := append(s, ...)
			// carry s's facts over to q.
			if src := aliasSource(info, as.Rhs[i]); src != nil {
				for f := range facts {
					if f.obj == src {
						adds = append(adds, fact{obj: lobj, rng: f.rng})
					}
				}
			}
			strong = append(strong, lobj)
		}
		// A plain reassignment overwrites the whole variable: old facts
		// die, rhs-derived facts (computed above) survive.
		for _, obj := range strong {
			killRoot(facts, obj)
		}
		for _, f := range adds {
			facts.Add(f)
		}
	}

	for _, f := range c.gens[n] {
		facts.Add(f)
	}
}

// aliasSource returns the root object the rhs expression borrows its
// elements from, for pure alias shapes: idents, index/slice chains, and
// append's first argument.
func aliasSource(info *types.Info, rhs ast.Expr) types.Object {
	if call, ok := rhs.(*ast.CallExpr); ok {
		if isBuiltin(info, call.Fun, "append") && len(call.Args) > 0 {
			return analysis.RootObject(info, call.Args[0])
		}
		return nil
	}
	return analysis.RootObject(info, rhs)
}

func killRoot(facts cfg.Facts[fact], obj types.Object) {
	facts.DeleteFunc(func(f fact) bool { return f.obj == obj })
}

// escapes reports facts consumed by an escape point: the unsorted slice
// is returned, sent, stored in a field, or passed to a call other than
// sort/append.
func (c *checker) escapes(n ast.Node, facts cfg.Facts[fact]) {
	if len(facts) == 0 {
		return
	}
	if _, ok := n.(*ast.RangeStmt); ok {
		return
	}
	info := c.pass.TypesInfo
	for f := range facts {
		one := map[types.Object]bool{f.obj: true}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if analysis.MentionsAny(info, r, one) {
					c.addEscape(f, n.Pos(), "a return of %s", f.obj.Name())
				}
			}
			continue
		case *ast.SendStmt:
			if analysis.MentionsAny(info, n.Value, one) {
				c.addEscape(f, n.Pos(), "a channel send of %s", f.obj.Name())
			}
			continue
		case *ast.DeferStmt:
			if analysis.MentionsAny(info, n, one) {
				c.addEscape(f, n.Pos(), "a deferred call using %s", f.obj.Name())
			}
			continue
		case *ast.GoStmt:
			if analysis.MentionsAny(info, n, one) {
				c.addEscape(f, n.Pos(), "a goroutine using %s", f.obj.Name())
			}
			continue
		case *ast.AssignStmt:
			// Storing the slice into a field or package variable makes
			// it observable beyond this function.
			for i, lhs := range n.Lhs {
				if _, plain := lhs.(*ast.Ident); plain {
					continue
				}
				if i >= len(n.Rhs) {
					break
				}
				if _, isSel := lhs.(*ast.SelectorExpr); isSel && analysis.MentionsAny(info, n.Rhs[i], one) {
					c.addEscape(f, n.Pos(), "a store of %s into a field", f.obj.Name())
				}
			}
		}
		// Calls: any argument mentioning the slice, except the calls the
		// dataflow already models (sort, append).
		walkNoFuncLit(n, func(x ast.Node) {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return
			}
			if _, isSort := analysis.SortCallTarget(info, call); isSort {
				return
			}
			if id, isIdent := call.Fun.(*ast.Ident); isIdent {
				if _, isB := info.ObjectOf(id).(*types.Builtin); isB {
					return // append, len, cap, copy, delete...
				}
			}
			for _, arg := range call.Args {
				if analysis.MentionsAny(info, arg, one) {
					c.addEscape(f, call.Pos(), "a call to %s with %s", callName(call), f.obj.Name())
					return
				}
			}
		})
	}
}

func (c *checker) addEscape(f fact, pos token.Pos, format string, args ...any) {
	c.hazards[f.rng] = append(c.hazards[f.rng], hazard{pos: pos,
		desc: fmt.Sprintf(format, args...) +
			fmt.Sprintf(" before sorting (line %d)", c.pass.Fset.Position(pos).Line)})
}

func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "a function"
}

// walkNoFuncLit visits every node under n except the insides of nested
// function literals (they are separate analysis units).
func walkNoFuncLit(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if x != nil {
			visit(x)
		}
		return true
	})
}
