// Package pooluse flags pooled objects touched after they are
// returned to their sync.Pool: reads, writes, channel re-sends, and
// double-Puts, on any path after the Put. Once Put, a buffer belongs
// to the pool and may be handed to another goroutine by the next Get —
// a late read is a data race the race detector only catches if the
// interleaving happens, and a late write corrupts someone else's
// batch.
//
// The analysis is flow-sensitive and interprocedural within the
// package: it builds the call graph, computes a bottom-up summary for
// every function ("calling f may Put parameter i, or a field chain
// hanging off it"), then runs a forward may-analysis per function
// body. A Put — direct, or implied by a callee summary at a call site
// — generates a "returned to pool" fact for the target's root variable
// and selector path (m.raw, wk.scratch). Any later expression whose
// selector chain overlaps a live fact is a use-after-Put; a later Put
// of an overlapping chain is a double-Put. Facts die on strong
// updates: reassigning the variable (or a prefix of the tracked path)
// rebinds it to a fresh object, and a range loop rebinding its
// iteration variables kills facts rooted at them each iteration. A range
// loop's range expression is a use, checked at every entry to the loop
// header.
//
// Known limitations, all in the conservative-for-this-rule direction
// of missing rare hazards rather than flagging correct code: aliases
// taken before the Put are not tracked, Puts inside nested function
// literals belong to the literal's own analysis (a deferred
// closure-Put does not poison the enclosing body), and unknown callees
// are havoc only in the sense that passing an already-Put object to
// any call is reported as a use.
//
// Scoped to internal/live, internal/dist, internal/aggtable and
// internal/kernel — the layers that recycle buffers through pools
// (aggtable's table slabs).
package pooluse

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"parallelagg/internal/analysis"
	"parallelagg/internal/analysis/cfg"
)

// Packages scopes the analyzer to the pooling layers. "live" matches
// both live/ and internal/live.
var Packages = []string{"internal/live", "internal/dist", "internal/aggtable", "internal/kernel", "live"}

var Analyzer = &analysis.Analyzer{
	Name: "pooluse",
	Doc: "flag pooled buffers used after sync.Pool.Put\n\n" +
		"After p.Put(x) — directly or inside a callee — x belongs to the pool:\n" +
		"it must not be read, written, sent, or Put again on any subsequent\n" +
		"path. The next Get may hand the same buffer to another goroutine, so\n" +
		"a late touch is a data race or cross-batch corruption.",
	Run: run,
}

// maxPathLen caps tracked selector-path depth (segments), bounding the
// summary domain so recursive functions converge.
const maxPathLen = 3

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.Pkg.Path(), Packages) {
		return nil
	}
	graph := analysis.BuildCallGraph(pass.Files, pass.TypesInfo)
	c := &checker{
		pass:  pass,
		info:  pass.TypesInfo,
		graph: graph,
		sums:  summaries(graph, pass.TypesInfo),
	}
	for _, n := range graph.Nodes {
		c.checkBody(n.Body())
	}
	return nil
}

// A fact says: the object reachable as root(.path) was returned to a
// pool at pos, and must not be touched again.
type fact struct {
	root types.Object
	path string // dotted selector chain below root; "" is the root itself
	pos  token.Pos
}

// A putEvent is one Put implied by a node: a direct sync.Pool.Put or a
// call whose callee summary Puts one of its arguments.
type putEvent struct {
	target ast.Expr // the argument expression handed to the pool
	root   types.Object
	path   string
	pos    token.Pos
}

type checker struct {
	pass  *analysis.Pass
	info  *types.Info
	graph *analysis.CallGraph
	sums  map[*analysis.FuncNode]string
}

func (c *checker) checkBody(body *ast.BlockStmt) {
	g := cfg.New(body)
	in := cfg.Forward(g, cfg.Problem[fact]{
		Transfer: func(n ast.Node, facts cfg.Facts[fact]) { c.step(n, facts, false) },
	})
	// Reporting pass: replay each block from its solved entry facts,
	// checking uses before applying each node's own gen/kill.
	for _, blk := range g.Blocks {
		facts := cfg.Facts[fact]{}
		for f := range in[blk] {
			facts.Add(f)
		}
		for _, n := range blk.Stmts {
			c.step(n, facts, true)
		}
	}
}

// step applies one node's gen/kill to facts; when report is true it
// first checks the node's expressions against the live facts and
// reports violations. Gen/kill decisions never depend on which facts
// are present, keeping the transfer monotone for the fixpoint solve.
func (c *checker) step(n ast.Node, facts cfg.Facts[fact], report bool) {
	if rng, ok := n.(*ast.RangeStmt); ok {
		// Loop-header marker. The range expression is a use like any
		// other: evaluated at entry, its elements read on every trip.
		c.step(rng.X, facts, report)
		// The iteration variables are rebound each trip, so facts rooted
		// at them do not survive the back edge.
		for _, e := range []ast.Expr{rng.Key, rng.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if obj := c.info.ObjectOf(id); obj != nil {
					facts.DeleteFunc(func(f fact) bool { return f.root == obj })
				}
			}
		}
		return
	}

	puts := c.putEvents(n)

	if report {
		c.scanUses(n, facts, puts)
	}

	// Kills: a strong update to a variable or a path prefix rebinds it.
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			root, path, ok := flatten(c.info, lhs)
			if !ok {
				continue
			}
			facts.DeleteFunc(func(f fact) bool {
				return f.root == root && isPathPrefix(path, f.path)
			})
		}
	}

	// Gens: everything this node hands to a pool is now off limits.
	for _, p := range puts {
		if p.root != nil {
			facts.Add(fact{root: p.root, path: p.path, pos: p.pos})
		}
	}
}

// putEvents collects the Puts a node performs: direct sync.Pool.Put
// calls and calls whose callee summary Puts a parameter. Nested
// function literals are skipped — their Puts run when the literal
// runs, under its own analysis.
func (c *checker) putEvents(n ast.Node) []putEvent {
	var events []putEvent
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if target, ok := poolPutTarget(c.info, call); ok {
			root, path, _ := flatten(c.info, target)
			events = append(events, putEvent{target: target, root: root, path: path, pos: call.Pos()})
			return true
		}
		callee := c.graph.CalleeOf(call)
		if callee == nil {
			return true
		}
		for _, ent := range decodeSummary(c.sums[callee]) {
			arg := argExpr(call, callee, ent.param)
			if arg == nil {
				continue
			}
			root, path, ok := flatten(c.info, arg)
			if !ok {
				continue
			}
			events = append(events, putEvent{
				target: arg,
				root:   root,
				path:   joinPath(path, ent.path),
				pos:    call.Pos(),
			})
		}
		return true
	})
	return events
}

// scanUses walks the node's expressions and reports overlaps with live
// facts. The targets of this node's own Puts are excluded from the
// generic scan — touching them here is the Put itself — but a live
// fact overlapping a Put target is a double-Put.
func (c *checker) scanUses(n ast.Node, facts cfg.Facts[fact], puts []putEvent) {
	skip := make(map[ast.Expr]bool, len(puts))
	for _, p := range puts {
		skip[p.target] = true
		if p.root == nil {
			continue
		}
		if f, ok := overlapping(facts, p.root, p.path); ok {
			c.pass.Reportf(p.target.Pos(),
				"%s is returned to its sync.Pool twice (already Put at line %d)",
				chainString(p.root, p.path), c.line(f.pos))
		}
	}

	analysis.WalkStack(n, func(x ast.Node, stack []ast.Node) bool {
		e, ok := x.(ast.Expr)
		if !ok {
			return true
		}
		if skip[e] {
			return false
		}
		if !isChainNode(e) {
			return true
		}
		if len(stack) > 0 && extendsChain(stack[len(stack)-1], e) {
			return true // an enclosing expression already covered this chain
		}
		root, path, ok := flatten(c.info, e)
		if !ok || root == nil {
			return true
		}
		// An assignment LHS overwriting the tracked path (or a prefix
		// of it) is a strong update, not a use; writing to a path
		// BELOW a tracked fact stores into pooled memory and is.
		lhsOfAssign := false
		if len(stack) > 0 {
			if as, ok := stack[len(stack)-1].(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if lhs == e {
						lhsOfAssign = true
					}
				}
			}
		}
		var hit fact
		found := false
		for f := range facts {
			if f.root != root {
				continue
			}
			conflict := isPathPrefix(f.path, path) // touching at or below the pooled chain
			if !lhsOfAssign {
				conflict = conflict || isPathPrefix(path, f.path) // e.g. sending m with m.raw pooled
			} else {
				conflict = conflict && path != f.path && !isPathPrefix(path, f.path)
			}
			if conflict && (!found || f.pos < hit.pos) {
				hit, found = f, true
			}
		}
		if found {
			c.pass.Reportf(e.Pos(),
				"%s is used after being returned to its sync.Pool (Put at line %d): pooled buffers must not be read, written, or re-sent after Put",
				chainString(root, path), c.line(hit.pos))
		}
		return true
	})
}

func (c *checker) line(pos token.Pos) int { return c.pass.Fset.Position(pos).Line }

func overlapping(facts cfg.Facts[fact], root types.Object, path string) (fact, bool) {
	var hit fact
	found := false
	for f := range facts {
		if f.root == root && (isPathPrefix(f.path, path) || isPathPrefix(path, f.path)) {
			if !found || f.pos < hit.pos {
				hit, found = f, true
			}
		}
	}
	return hit, found
}

// --- summaries ---

// A summary entry: calling the function may Put parameter `param`
// (receiver counts as parameter 0 of methods), or the selector chain
// `path` below it.
type sumEntry struct {
	param int
	path  string
}

// summaries computes, bottom-up over the SCCs, which parameters each
// function may hand to a sync.Pool. The summary is encoded as a sorted
// ";"-joined string ("0" or "1.raw") so the fixpoint helper can compare
// it; paths are capped at maxPathLen segments, which keeps the domain
// finite under recursion.
func summaries(graph *analysis.CallGraph, info *types.Info) map[*analysis.FuncNode]string {
	return analysis.Summaries(graph, func(n *analysis.FuncNode, get func(*analysis.FuncNode) string) string {
		params := paramVars(info, n)
		index := make(map[types.Object]int, len(params))
		for i, v := range params {
			if v != nil {
				index[v] = i
			}
		}
		set := make(map[sumEntry]bool)
		add := func(root types.Object, path string) {
			i, ok := index[root]
			if !ok || strings.Count(path, ".") >= maxPathLen {
				return
			}
			set[sumEntry{param: i, path: path}] = true
		}
		for _, site := range n.Calls {
			if site.Go {
				continue // a goroutine's Put happens-after unpredictably; don't promise it
			}
			if target, ok := poolPutTarget(info, site.Call); ok {
				if root, path, ok := flatten(info, target); ok {
					add(root, path)
				}
				continue
			}
			if site.Callee == nil {
				continue
			}
			for _, ent := range decodeSummary(get(site.Callee)) {
				arg := argExpr(site.Call, site.Callee, ent.param)
				if arg == nil {
					continue
				}
				if root, path, ok := flatten(info, arg); ok {
					add(root, joinPath(path, ent.path))
				}
			}
		}
		return encodeSummary(set)
	})
}

func encodeSummary(set map[sumEntry]bool) string {
	if len(set) == 0 {
		return ""
	}
	parts := make([]string, 0, len(set))
	for ent := range set {
		s := strconv.Itoa(ent.param)
		if ent.path != "" {
			s += "." + ent.path
		}
		parts = append(parts, s)
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

func decodeSummary(s string) []sumEntry {
	if s == "" {
		return nil
	}
	var out []sumEntry
	for _, part := range strings.Split(s, ";") {
		idx, rest, _ := strings.Cut(part, ".")
		i, err := strconv.Atoi(idx)
		if err != nil {
			continue
		}
		out = append(out, sumEntry{param: i, path: rest})
	}
	return out
}

// paramVars lists a function's receiver (for methods) and parameters
// in order; unnamed slots hold nil to keep indices aligned.
func paramVars(info *types.Info, n *analysis.FuncNode) []*types.Var {
	var out []*types.Var
	addList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				out = append(out, nil)
				continue
			}
			for _, name := range f.Names {
				v, _ := info.Defs[name].(*types.Var)
				out = append(out, v)
			}
		}
	}
	if n.Decl != nil {
		addList(n.Decl.Recv)
		addList(n.Decl.Type.Params)
	} else {
		addList(n.Lit.Type.Params)
	}
	return out
}

// argExpr maps a callee parameter index back to the argument
// expression at a call site; for methods, index 0 is the receiver.
func argExpr(call *ast.CallExpr, callee *analysis.FuncNode, idx int) ast.Expr {
	if callee.Decl != nil && callee.Decl.Recv != nil {
		if idx == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		idx--
	}
	if idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

// --- expression chains ---

// poolPutTarget reports whether call is sync.Pool.Put and returns the
// pooled argument.
func poolPutTarget(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" || len(call.Args) != 1 {
		return nil, false
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isSyncPool(tv.Type) {
		return nil, false
	}
	return call.Args[0], true
}

func isSyncPool(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

// flatten resolves an expression to (root variable, dotted selector
// path): m -> (m, ""), m.raw -> (m, "raw"), wk.outRaw[d] -> (wk,
// "outRaw") — index components are dropped, folding a whole indexed
// collection into its field, the conservative grain for this check.
func flatten(info *types.Info, e ast.Expr) (types.Object, string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if _, ok := obj.(*types.Var); !ok {
			return nil, "", false
		}
		return obj, "", true
	case *ast.SelectorExpr:
		if analysis.ImportedPackage(info, identOf(e.X)) != nil {
			obj := info.ObjectOf(e.Sel)
			if _, ok := obj.(*types.Var); !ok {
				return nil, "", false
			}
			return obj, "", true
		}
		root, path, ok := flatten(info, e.X)
		if !ok {
			return nil, "", false
		}
		return root, joinPath(path, e.Sel.Name), true
	case *ast.IndexExpr:
		return flatten(info, e.X)
	case *ast.SliceExpr:
		return flatten(info, e.X)
	case *ast.ParenExpr:
		return flatten(info, e.X)
	case *ast.StarExpr:
		return flatten(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return flatten(info, e.X)
		}
	}
	return nil, "", false
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

func isChainNode(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		return true
	}
	return false
}

// extendsChain reports whether parent continues the selector chain
// that child begins (so child is not a maximal chain on its own).
func extendsChain(parent ast.Node, child ast.Expr) bool {
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		return p.X == child
	case *ast.IndexExpr:
		return p.X == child
	case *ast.SliceExpr:
		return p.X == child
	case *ast.ParenExpr:
		return p.X == child
	case *ast.StarExpr:
		return p.X == child
	case *ast.UnaryExpr:
		return p.Op == token.AND && p.X == child
	}
	return false
}

// isPathPrefix reports whether a is b, or a dotted prefix of b
// ("" prefixes everything; "raw" prefixes "raw.ts" but not "raws").
func isPathPrefix(a, b string) bool {
	return a == b || a == "" || strings.HasPrefix(b, a+".")
}

func joinPath(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "." + b
	}
}

func chainString(root types.Object, path string) string {
	if path == "" {
		return root.Name()
	}
	return root.Name() + "." + path
}
