// Package noalloc is the static half of the zero-allocation contract:
// a function annotated
//
//	//aggvet:noalloc
//
// must contain no allocating construct, and neither may anything it
// calls on its own goroutine — the whole call closure, computed over
// the package call graph, is scanned. The runtime half is the
// testing.AllocsPerRun pins (TestAllocsPin* in internal/aggtable);
// this analyzer catches the regression at vet time, on the exact line
// that introduced it, instead of as a count mismatch in CI.
//
// Constructs reported inside the closure:
//
//   - make, new, and slice/map composite literals (and &composite);
//   - append, UNLESS it is the sanctioned self-append idiom
//     `x = append(x, ...)` that reuses (and amortizes) one backing
//     array — the steady state the runtime pins measure;
//   - map element assignment (bucket growth);
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - closure creation and `go` statements;
//   - interface boxing: a non-pointer-shaped concrete value passed,
//     assigned, or returned as an interface;
//   - any call to fmt (reflection-driven formatting allocates);
//   - any call whose callee is unknown to the package call graph and
//     not on the audited allocation-free whitelist — havoc: what
//     cannot be proven clean is reported.
//
// The whitelist (KnownAllocFree) names cross-package callees that are
// themselves allocation-free by construction or by their own
// //aggvet:noalloc annotation in their home package: tuple's value
// math and fixed-width codecs, encoding/binary's endian put/get,
// math/bits, sync/atomic, bare mutex operations, and sync.Pool's Get
// and Put. Everything else escapes with //aggvet:allow noalloc and a
// rationale — growth reallocation that amortizes to zero (aggtable's
// fresh slabs, dist.frameBuf) and cold error paths are the two
// sanctioned exception classes.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"parallelagg/internal/analysis"
	"parallelagg/internal/analysis/lockset"
)

// Marker is the function annotation: "//aggvet:noalloc".
const Marker = "aggvet:noalloc"

var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc: "enforce //aggvet:noalloc static zero-allocation contracts\n\n" +
		"An annotated function and every same-goroutine callee the package\n" +
		"call graph can see must be free of allocating constructs: make/new,\n" +
		"growing append (self-append x = append(x, ...) is the sanctioned\n" +
		"amortized idiom), map writes, string concat/conversion, closures,\n" +
		"go statements, interface boxing, fmt, and calls that cannot be\n" +
		"proven allocation-free.",
	Run: run,
}

// KnownAllocFree lists cross-package callees audited as allocation
// free, keyed by import-path suffix. A "*" entry admits the whole
// package. tuple's entries carry their own //aggvet:noalloc in package
// tuple, so the audit is enforced, not assumed.
var KnownAllocFree = map[string][]string{
	"internal/tuple": {"Hash", "Dest", "Update", "Merge", "NewState", "EncodeRaw", "EncodePartial", "DecodeRaw", "DecodePartial",
		"Len", "Reset", "Append", "AppendRows", "At", "StateAt", "EncodeRawCol", "EncodePartialCol", "DecodeRawCol", "DecodePartialCol"},
	// The fold entry points of Table and Shared, Table's size and slot
	// count, and its home-slot rule: annotated in package aggtable, and
	// scripts/lint.sh's -require-noalloc gate keeps them so.
	"internal/aggtable": {"Len", "Slots", "Home", "UpdateRaw", "MergePartial", "UpdateRows", "UpdateBatch", "UpdateBatchContended", "MergeBatch", "FoldRows", "FoldPartial"},

	"encoding/binary": {"PutUint16", "PutUint32", "PutUint64", "Uint16", "Uint32", "Uint64"},
	"math/bits":       {"*"},
	"sync/atomic":     {"*"},
	// Pool.Put of a pointer boxes nothing (checkArgBoxing still reports a
	// value), and Pool.Get returns what a Put left, or nil from a pool
	// with no New — a New func that allocates is the one case this entry
	// misses, so the pools it covers (aggtable's slabs) have none.
	"sync": {"Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock", "Get", "Put"},
}

// allowedBuiltins are the builtins that never allocate. append, make
// and new are handled explicitly; panic is tolerated because it ends
// the path (its boxing happens once, while dying).
var allowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "delete": true,
	"min": true, "max": true, "clear": true, "panic": true,
	"close": true, "recover": true, "print": true, "println": true,
	"real": true, "imag": true, "complex": true,
}

func run(pass *analysis.Pass) error {
	graph := analysis.BuildCallGraph(pass.Files, pass.TypesInfo)

	// Roots: annotated declarations, in source order.
	var roots []*analysis.FuncNode
	for _, n := range graph.Nodes {
		if n.Decl != nil && isAnnotated(n.Decl) {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Attribute every reachable function to the first root that reaches
	// it, so each diagnostic names the contract it breaks.
	owner := map[*analysis.FuncNode]*analysis.FuncNode{}
	for _, root := range roots {
		for n := range graph.Reachable([]*analysis.FuncNode{root}, true) {
			if _, claimed := owner[n]; !claimed {
				owner[n] = root
			}
		}
	}

	c := &checker{pass: pass, info: pass.TypesInfo, graph: graph}
	for _, n := range graph.Nodes { // deterministic order
		root, ok := owner[n]
		if !ok {
			continue
		}
		c.scan(n, root)
	}
	return nil
}

func isAnnotated(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text, ok := strings.CutPrefix(c.Text, "//")
		if !ok {
			continue
		}
		rest, ok := strings.CutPrefix(strings.TrimSpace(text), Marker)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

type checker struct {
	pass  *analysis.Pass
	info  *types.Info
	graph *analysis.CallGraph
}

// where renders the contract context for a diagnostic in n.
func (c *checker) where(n, root *analysis.FuncNode) string {
	if n == root {
		return "//aggvet:noalloc function " + n.Name()
	}
	return n.Name() + ", reachable from //aggvet:noalloc function " + root.Name()
}

// scan walks one function body (nested literals excluded: creating one
// is itself reported, and a literal reachable through the call graph
// is scanned as its own node) and reports every allocating construct.
func (c *checker) scan(n, root *analysis.FuncNode) {
	ctx := c.where(n, root)
	body := n.Body()
	analysis.WalkStack(body, func(x ast.Node, stack []ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			c.pass.Reportf(x.Pos(), "closure creation allocates in %s", ctx)
			return false
		case *ast.GoStmt:
			c.pass.Reportf(x.Pos(), "go statement allocates a new goroutine in %s", ctx)
			// Still scan the call's arguments (evaluated on this
			// goroutine); the spawned body is outside the contract.
			return true
		case *ast.CompositeLit:
			c.checkComposite(x, stack, ctx)
			return true
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(c.info.Types[x.X].Type) {
				c.pass.Reportf(x.Pos(), "string concatenation allocates in %s", ctx)
			}
			return true
		case *ast.AssignStmt:
			c.checkAssign(x, ctx)
			return true
		case *ast.IncDecStmt:
			// m[k]++ inserts k when absent: a map write like any other.
			if ix, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok {
				if t := c.info.Types[ix.X].Type; t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						c.pass.Reportf(x.Pos(), "map assignment may grow the map in %s", ctx)
					}
				}
			}
			return true
		case *ast.ReturnStmt:
			c.checkReturn(x, n, ctx)
			return true
		case *ast.CallExpr:
			c.checkCall(x, stack, ctx)
			return true
		}
		return true
	})
}

// checkComposite reports slice/map composite literals and &composite
// (both heap allocations); plain struct values build in place.
func (c *checker) checkComposite(lit *ast.CompositeLit, stack []ast.Node, ctx string) {
	t := c.info.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		c.pass.Reportf(lit.Pos(), "%s composite literal allocates in %s", kindWord(t), ctx)
		return
	}
	if len(stack) > 0 {
		if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
			c.pass.Reportf(u.Pos(), "&composite literal allocates in %s", ctx)
		}
	}
}

func kindWord(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

// checkAssign reports map element writes, string +=, and interface
// boxing on assignment.
func (c *checker) checkAssign(as *ast.AssignStmt, ctx string) {
	for _, lhs := range as.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := c.info.Types[ix.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					c.pass.Reportf(lhs.Pos(), "map assignment may grow the map in %s", ctx)
				}
			}
		}
	}
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && isString(c.info.Types[as.Lhs[0]].Type) {
		c.pass.Reportf(as.Pos(), "string concatenation allocates in %s", ctx)
	}
	if as.Tok == token.ASSIGN {
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			lt := c.info.Types[lhs].Type
			if lt == nil || !types.IsInterface(lt) {
				continue
			}
			c.checkBoxing(as.Rhs[i], ctx)
		}
	}
}

// checkReturn reports boxing of concrete values into interface-typed
// results.
func (c *checker) checkReturn(ret *ast.ReturnStmt, n *analysis.FuncNode, ctx string) {
	sig := c.signatureOf(n)
	if sig == nil || sig.Results() == nil || len(ret.Results) != sig.Results().Len() {
		return // naked return or comma-ok mismatch: nothing to pair up
	}
	for i, res := range ret.Results {
		if types.IsInterface(sig.Results().At(i).Type()) {
			c.checkBoxing(res, ctx)
		}
	}
}

func (c *checker) signatureOf(n *analysis.FuncNode) *types.Signature {
	if n.Obj != nil {
		sig, _ := n.Obj.Type().(*types.Signature)
		return sig
	}
	if tv, ok := c.info.Types[n.Lit]; ok {
		sig, _ := tv.Type.(*types.Signature)
		return sig
	}
	return nil
}

// checkBoxing reports e when converting it to an interface allocates:
// a concrete, non-pointer-shaped value boxes on the heap. Pointers,
// channels, maps, funcs and existing interfaces fit the data word.
func (c *checker) checkBoxing(e ast.Expr, ctx string) {
	tv, ok := c.info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	t := tv.Type
	if types.IsInterface(t) || pointerShaped(t) {
		return
	}
	c.pass.Reportf(e.Pos(), "interface conversion of %s boxes on the heap in %s", t.String(), ctx)
}

func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// checkCall classifies one call: builtin, conversion, fmt, resolved
// in-package callee (scanned separately), whitelisted, or havoc.
func (c *checker) checkCall(call *ast.CallExpr, stack []ast.Node, ctx string) {
	fun := ast.Unparen(call.Fun)

	// Conversions: T(x).
	if tv, ok := c.info.Types[fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type, ctx)
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := c.info.Uses[id].(*types.Builtin); ok {
			c.checkBuiltin(call, b.Name(), stack, ctx)
			return
		}
	}

	// fmt: reflection-driven formatting always allocates.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if pkg := analysis.ImportedPackage(c.info, base); pkg != nil && pkg.Path() == "fmt" {
				c.pass.Reportf(call.Pos(), "fmt.%s formats via reflection and allocates in %s", sel.Sel.Name, ctx)
				return
			}
		}
	}

	// Resolved in-package callees are scanned as their own nodes; the
	// call itself is free. Interface-typed parameters still box here.
	if c.graph.CalleeOf(call) != nil {
		c.checkArgBoxing(call, ctx)
		return
	}

	// Audited cross-package whitelist.
	if obj := c.calleeObject(fun); obj != nil && whitelisted(obj) {
		c.checkArgBoxing(call, ctx)
		return
	}

	c.pass.Reportf(call.Pos(), "call to %s cannot be proven allocation-free in %s (unknown callee; see noalloc's KnownAllocFree whitelist)",
		callName(fun), ctx)
}

// checkBuiltin handles make/new (banned) and append (banned unless
// self-append).
func (c *checker) checkBuiltin(call *ast.CallExpr, name string, stack []ast.Node, ctx string) {
	switch name {
	case "make":
		c.pass.Reportf(call.Pos(), "make allocates in %s", ctx)
	case "new":
		c.pass.Reportf(call.Pos(), "new allocates in %s", ctx)
	case "append":
		if c.isSelfAppend(call, stack) {
			return // x = append(x, ...): the sanctioned amortized idiom
		}
		c.pass.Reportf(call.Pos(), "append may grow a fresh backing array in %s (only self-append x = append(x, ...) is allocation-free in the steady state)", ctx)
	default:
		if !allowedBuiltins[name] {
			c.pass.Reportf(call.Pos(), "builtin %s may allocate in %s", name, ctx)
		}
	}
}

// isSelfAppend reports whether the append call is the amortized
// steady-state idiom: its result is assigned back to the same
// variable/field chain as its first argument.
func (c *checker) isSelfAppend(call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	argRoot, argPath, ok := lockset.Flatten(c.info, call.Args[0])
	if !ok {
		return false
	}
	// Find the assignment this call feeds (possibly through parens).
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.AssignStmt:
			for j, rhs := range p.Rhs {
				if ast.Unparen(rhs) != call || j >= len(p.Lhs) {
					continue
				}
				lroot, lpath, ok := lockset.Flatten(c.info, p.Lhs[j])
				return ok && lroot == argRoot && lpath == argPath
			}
			return false
		default:
			return false
		}
	}
	return false
}

// checkConversion reports allocating conversions: string <-> byte/rune
// slices, anything -> string, and boxing into an interface type.
func (c *checker) checkConversion(call *ast.CallExpr, target types.Type, ctx string) {
	if len(call.Args) != 1 {
		return
	}
	src := c.info.Types[call.Args[0]].Type
	if src == nil {
		return
	}
	if types.IsInterface(target) {
		c.checkBoxing(call.Args[0], ctx)
		return
	}
	tIsString := isString(target)
	sIsString := isString(src)
	switch {
	case tIsString && !sIsString:
		c.pass.Reportf(call.Pos(), "conversion to string allocates in %s", ctx)
	case sIsString && byteOrRuneSlice(target):
		c.pass.Reportf(call.Pos(), "string to %s conversion allocates in %s", target.String(), ctx)
	}
}

// checkArgBoxing reports concrete values boxed into interface-typed
// parameters of an otherwise-clean call.
func (c *checker) checkArgBoxing(call *ast.CallExpr, ctx string) {
	sig := c.callSignature(call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && types.IsInterface(pt) {
			c.checkBoxing(arg, ctx)
		}
	}
}

func (c *checker) callSignature(call *ast.CallExpr) *types.Signature {
	tv, ok := c.info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// calleeObject resolves the called function's object for whitelist
// matching: package functions and methods both resolve through the
// final identifier.
func (c *checker) calleeObject(fun ast.Expr) *types.Func {
	switch fun := fun.(type) {
	case *ast.Ident:
		f, _ := c.info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := c.info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

func whitelisted(obj *types.Func) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	for suffix, names := range KnownAllocFree {
		if !analysis.PathMatches(pkg.Path(), []string{suffix}) {
			continue
		}
		for _, name := range names {
			if name == "*" || name == obj.Name() {
				return true
			}
		}
	}
	return false
}

func callName(fun ast.Expr) string {
	switch fun := fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return base.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "function value"
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func byteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}
