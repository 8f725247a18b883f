// Package lockset is the shared lock-set dataflow engine under the
// lockcheck and lockguard analyzers: a forward may-analysis over the
// internal/analysis/cfg graphs whose facts are "mutex M (reached as
// root.path) may be held here". Both analyzers need exactly the same
// machinery — classifying sync.Mutex/sync.RWMutex method calls,
// tracking acquisitions through branches, loops and defers, seeding
// caller-held locks from //aggvet:holds annotations, and carrying the
// lock-set into lexically nested function literals — so it lives here
// once, the way internal/analysis/cfg carries the graph builder for
// the flow-sensitive analyzers.
//
// Semantics, in the order the transfer function applies them:
//
//   - mu.Lock() / mu.RLock() generate a held fact for (root, path) at
//     the call position. TryLock/TryRLock generate nothing at the call:
//     the fact is added by the branch-refinement hook on the edge where
//     the acquisition succeeded (`if mu.TryLock() {...}` and the
//     negated `if !mu.TryLock() { return }` both resolve). A TryLock
//     outside a recognized branch condition acquires nothing — the
//     conservative direction for every rule built on this engine.
//   - mu.Unlock() / mu.RUnlock() kill every fact for (root, path).
//   - defer mu.Unlock() — directly, or as the sole effect of a deferred
//     function literal — kills the non-deferred facts for (root, path)
//     and generates a Deferred fact: the lock is still held from here
//     to function exit (guarded fields stay accessible), but the
//     release obligation is discharged on every path, panics included.
//   - a //aggvet:holds <param>.<field> directive on a function
//     declaration seeds the entry lock-set with a Seeded fact: the
//     caller holds that lock across the call (the Clang REQUIRES
//     annotation). Seeded facts satisfy guards and participate in
//     lock-order edges but are never reported as leaked at exit — they
//     are the caller's to release.
//
// Gen and kill decisions depend only on the node, never on the facts
// already present, so the fixpoint solve in cfg.Forward terminates.
package lockset

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"parallelagg/internal/analysis"
	"parallelagg/internal/analysis/cfg"
)

// HoldsMarker is the directive asserting a caller-held lock:
// "//aggvet:holds p.mu" on a function declaration whose receiver or
// parameter is named p.
const HoldsMarker = "aggvet:holds"

// A Fact says: the mutex reachable as root(.path) may be held at this
// program point.
type Fact struct {
	// Root is the variable the lock was reached through; Path the
	// dotted selector chain below it ("mu", "t.mu"). Two instances of
	// the same struct held through different roots are distinct facts.
	Root types.Object
	Path string

	// Abs is the instance-independent identity of the mutex — the
	// struct field or package-level variable object — used by the
	// cross-function lock-order graph.
	Abs types.Object

	// Read marks a reader (RLock) acquisition.
	Read bool

	// Deferred marks a lock whose release is scheduled by a defer: held
	// until exit, but not leaked.
	Deferred bool

	// Seeded marks a caller-held lock from //aggvet:holds (or the
	// creation-point lock-set inherited by a nested function literal):
	// held here, released elsewhere.
	Seeded bool

	// Pos is where the lock was acquired (or promised: the defer or
	// directive position).
	Pos token.Pos
}

// Chain renders the lock as the source spells it: "mu", "p.mu".
func (f Fact) Chain() string { return chain(f.Root, f.Path) }

func chain(root types.Object, path string) string {
	if root == nil {
		return path
	}
	if path == "" {
		return root.Name()
	}
	return root.Name() + "." + path
}

// A Kind is one mutex method.
type Kind uint8

const (
	Lock Kind = iota
	Unlock
	RLock
	RUnlock
	TryLock
	TryRLock
)

// Acquires reports whether the op adds a lock (unconditionally).
func (k Kind) Acquires() bool { return k == Lock || k == RLock }

// Releases reports whether the op removes a lock.
func (k Kind) Releases() bool { return k == Unlock || k == RUnlock }

// Reader reports whether the op is on the read side of an RWMutex.
func (k Kind) Reader() bool { return k == RLock || k == RUnlock || k == TryRLock }

func (k Kind) String() string {
	switch k {
	case Lock:
		return "Lock"
	case Unlock:
		return "Unlock"
	case RLock:
		return "RLock"
	case RUnlock:
		return "RUnlock"
	case TryLock:
		return "TryLock"
	default:
		return "TryRLock"
	}
}

// An Op is one mutex method call found in a node.
type Op struct {
	Call *ast.CallExpr
	Kind Kind

	// Root/Path/Abs identify the mutex, as in Fact. Root is nil when
	// the receiver expression does not flatten to a variable chain
	// (e.g. a map element); such ops are ignored by the engine.
	Root types.Object
	Path string
	Abs  types.Object

	// Deferred marks an op that runs at function exit: `defer
	// mu.Unlock()` or an unlock inside `defer func() {...}()`.
	Deferred bool
}

// Chain renders the mutex expression.
func (o Op) Chain() string { return chain(o.Root, o.Path) }

// Classify reports whether call is a sync.Mutex / sync.RWMutex method
// call and describes it. The receiver may be held through any selector
// chain (p.mu, s.t.mu) including pointer indirections.
func Classify(info *types.Info, call *ast.CallExpr) (Op, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return Op{}, false
	}
	var kind Kind
	switch sel.Sel.Name {
	case "Lock":
		kind = Lock
	case "Unlock":
		kind = Unlock
	case "RLock":
		kind = RLock
	case "RUnlock":
		kind = RUnlock
	case "TryLock":
		kind = TryLock
	case "TryRLock":
		kind = TryRLock
	default:
		return Op{}, false
	}
	recv := sel.X
	tv, ok := info.Types[recv]
	if !ok || !IsMutex(tv.Type) {
		return Op{}, false
	}
	op := Op{Call: call, Kind: kind}
	op.Root, op.Path, _ = Flatten(info, recv)
	op.Abs = absObject(info, recv)
	return op, true
}

// IsMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func IsMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// Flatten resolves an expression to (root variable, dotted selector
// path), the same grain pooluse uses: p.mu → (p, "mu"), s.t.mu →
// (s, "t.mu"); index components fold into their base.
func Flatten(info *types.Info, e ast.Expr) (types.Object, string, bool) {
	switch e := ast.Unparen(e).(type) {
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
		root, path, ok := Flatten(info, e.X)
		if !ok {
			return nil, "", false
		}
		return root, joinPath(path, e.Sel.Name), true
	case *ast.IndexExpr:
		return Flatten(info, e.X)
	case *ast.StarExpr:
		return Flatten(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return Flatten(info, e.X)
		}
	}
	return nil, "", false
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

func joinPath(a, b string) string {
	if a == "" {
		return b
	}
	return a + "." + b
}

// absObject resolves a mutex expression to its instance-independent
// identity: the struct field object for p.mu (shared by every peer),
// or the variable itself for a package-level `var mu sync.Mutex`.
func absObject(info *types.Info, recv ast.Expr) types.Object {
	switch e := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[e.Sel].(*types.Var); ok {
			return obj
		}
	case *ast.Ident:
		if obj, ok := info.ObjectOf(e).(*types.Var); ok {
			return obj
		}
	case *ast.StarExpr:
		return absObject(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return absObject(info, e.X)
		}
	}
	return nil
}

// OpsIn collects the mutex operations a node performs, in source
// order. Nested function literals are opaque (they run under their own
// analysis) with one exception: a literal that is the immediate
// operand of a defer statement runs at THIS function's exit, so its
// release ops surface here as deferred — `defer func() { mu.Unlock()
// }()` discharges mu's release obligation exactly like `defer
// mu.Unlock()`.
func OpsIn(info *types.Info, n ast.Node) []Op {
	var ops []Op
	var deferLit *ast.FuncLit
	if ds, ok := n.(*ast.DeferStmt); ok {
		if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			deferLit = lit
		}
	}
	// A *ast.RangeStmt appears in a CFG head block as a loop-header
	// marker; its body statements live in the body block (with a back
	// edge to the head). Only the header's Key/Value/X evaluate at the
	// head, so ops inside the body must not surface here — they would
	// apply twice, once with the head's (pre-iteration) facts.
	var skipBody *ast.BlockStmt
	if rs, ok := n.(*ast.RangeStmt); ok {
		skipBody = rs.Body
	}
	analysis.WalkStack(n, func(x ast.Node, stack []ast.Node) bool {
		if skipBody != nil && x == ast.Node(skipBody) {
			return false
		}
		if lit, ok := x.(*ast.FuncLit); ok {
			if lit != deferLit {
				return false
			}
			// Inside the deferred literal only release ops count (an
			// acquisition in a deferred closure is its own body's
			// problem, not a held lock here).
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := Classify(info, call)
		if !ok || op.Root == nil {
			return true
		}
		inDeferLit := deferLit != nil && withinLit(stack, deferLit)
		if inDeferLit && !op.Kind.Releases() {
			return true
		}
		if inDeferLit {
			op.Deferred = true
		} else if len(stack) > 0 {
			if ds, ok := stack[len(stack)-1].(*ast.DeferStmt); ok && ds.Call == call {
				op.Deferred = true
			}
		}
		ops = append(ops, op)
		return true
	})
	return ops
}

func withinLit(stack []ast.Node, lit *ast.FuncLit) bool {
	for _, n := range stack {
		if n == lit {
			return true
		}
	}
	return false
}

// Step applies one node's lock gen/kill to facts — the transfer
// function of the dataflow problem, exported so analyzers can replay
// blocks from their solved entry facts.
func Step(info *types.Info, n ast.Node, facts cfg.Facts[Fact]) {
	for _, op := range OpsIn(info, n) {
		Apply(op, facts)
	}
}

// Apply applies one op's gen/kill to facts. Analyzers that interleave
// checks with effects (report re-lock BEFORE the second Lock's fact
// lands) replay nodes op by op through this instead of Step.
func Apply(op Op, facts cfg.Facts[Fact]) {
	switch {
	case op.Kind.Releases() && !op.Deferred:
		killLock(facts, op.Root, op.Path, false)
	case op.Kind.Releases() && op.Deferred:
		// The release is scheduled: the lock stays held (Deferred) so
		// guarded fields remain accessible, but the obligation is met.
		killLock(facts, op.Root, op.Path, true)
		facts.Add(Fact{Root: op.Root, Path: op.Path, Abs: op.Abs,
			Read: op.Kind.Reader(), Deferred: true, Pos: op.Call.Pos()})
	case op.Kind.Acquires():
		facts.Add(Fact{Root: op.Root, Path: op.Path, Abs: op.Abs,
			Read: op.Kind.Reader(), Pos: op.Call.Pos()})
	}
	// TryLock/TryRLock: handled by Refine on the branch edge.
}

// killLock removes facts for (root, path); keepDeferred leaves the
// scheduled-release facts in place (a second defer should not erase
// the first's promise).
func killLock(facts cfg.Facts[Fact], root types.Object, path string, keepDeferred bool) {
	facts.DeleteFunc(func(f Fact) bool {
		if f.Root != root || f.Path != path {
			return false
		}
		return !(keepDeferred && f.Deferred)
	})
}

// Refine adjusts facts crossing a conditional edge: when the branch
// condition is (possibly negated) mu.TryLock() / mu.TryRLock(), the
// lock is held exactly on the success edge.
func Refine(info *types.Info) func(cond ast.Expr, branch bool, facts cfg.Facts[Fact]) {
	return func(cond ast.Expr, branch bool, facts cfg.Facts[Fact]) {
		cond = ast.Unparen(cond)
		acquiredOn := true
		if not, ok := cond.(*ast.UnaryExpr); ok && not.Op == token.NOT {
			cond = ast.Unparen(not.X)
			acquiredOn = false
		}
		call, ok := cond.(*ast.CallExpr)
		if !ok {
			return
		}
		op, ok := Classify(info, call)
		if !ok || op.Root == nil || (op.Kind != TryLock && op.Kind != TryRLock) {
			return
		}
		if branch == acquiredOn {
			facts.Add(Fact{Root: op.Root, Path: op.Path, Abs: op.Abs,
				Read: op.Kind.Reader(), Pos: call.Pos()})
		}
	}
}

// HoldsSeed parses the //aggvet:holds directives on a function
// declaration and returns the seeded caller-held facts. The directive
// grammar is "//aggvet:holds <name>.<field>[.<field>...]" where <name>
// is the receiver or a parameter of the function; a directive that
// does not resolve to a mutex-typed chain returns a non-nil badDirective
// position so the analyzer can report the misconfiguration.
func HoldsSeed(info *types.Info, decl *ast.FuncDecl) (seed []Fact, bad []*ast.Comment) {
	if decl == nil || decl.Doc == nil {
		return nil, nil
	}
	for _, c := range decl.Doc.List {
		text, ok := strings.CutPrefix(c.Text, "//")
		if !ok {
			continue
		}
		rest, ok := strings.CutPrefix(strings.TrimSpace(text), HoldsMarker)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 1 {
			bad = append(bad, c)
			continue
		}
		f, ok := resolveHolds(info, decl, fields[0], c.Pos())
		if !ok {
			bad = append(bad, c)
			continue
		}
		seed = append(seed, f)
	}
	return seed, bad
}

// resolveHolds turns "p.mu" into a seeded fact rooted at the receiver
// or parameter named p, walking the field chain through the type
// structure to find the mutex field's object (the Abs identity).
func resolveHolds(info *types.Info, decl *ast.FuncDecl, spec string, pos token.Pos) (Fact, bool) {
	segs := strings.Split(spec, ".")
	if len(segs) < 2 {
		return Fact{}, false
	}
	root := paramNamed(info, decl, segs[0])
	if root == nil {
		return Fact{}, false
	}
	t := root.Type()
	var field *types.Var
	for _, seg := range segs[1:] {
		obj, _, _ := types.LookupFieldOrMethod(t, true, root.Pkg(), seg)
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			return Fact{}, false
		}
		field, t = v, v.Type()
	}
	if !IsMutex(t) {
		return Fact{}, false
	}
	return Fact{
		Root:   root,
		Path:   strings.Join(segs[1:], "."),
		Abs:    field,
		Seeded: true,
		Pos:    pos,
	}, true
}

func paramNamed(info *types.Info, decl *ast.FuncDecl, name string) *types.Var {
	find := func(fl *ast.FieldList) *types.Var {
		if fl == nil {
			return nil
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				if id.Name == name {
					v, _ := info.Defs[id].(*types.Var)
					return v
				}
			}
		}
		return nil
	}
	if v := find(decl.Recv); v != nil {
		return v
	}
	return find(decl.Type.Params)
}

// A Body is one analyzed execution unit handed to the visit callback:
// the declaration's own body, or a nested function literal with the
// lock-set at its creation point as seed.
type Body struct {
	// Decl is the enclosing declaration (always set, for diagnostics).
	Decl *ast.FuncDecl
	// Lit is nil for the declaration body itself.
	Lit *ast.FuncLit
	// Spawned marks a literal launched with `go`: it runs on another
	// goroutine, so it inherits no locks from its creation point.
	Spawned bool

	Graph *cfg.Graph
	// In maps each block to the lock-set at its entry; replaying Step
	// over a block's Stmts reproduces interior facts.
	In map[*cfg.Block]cfg.Facts[Fact]
	// Seed is the entry lock-set: //aggvet:holds facts for the decl,
	// creation-point facts (marked Seeded) for literals.
	Seed cfg.Facts[Fact]
}

// Exit returns the lock-set at function exit.
func (b *Body) Exit() cfg.Facts[Fact] { return b.In[b.Graph.Exit] }

// Analyze solves the lock-set problem for decl's body and every
// function literal nested inside it, and calls visit for each. A
// literal's seed is the lock-set at its creation point with every fact
// marked Seeded — code lexically under a held lock (a sort.Slice
// comparator, a deferred cleanup closure) sees that lock held — except
// `go`-launched literals, which start empty on their own goroutine.
func Analyze(info *types.Info, decl *ast.FuncDecl, seed []Fact, visit func(*Body)) {
	seedSet := cfg.Facts[Fact]{}
	for _, f := range seed {
		seedSet.Add(f)
	}
	analyzeBody(info, decl, nil, false, decl.Body, seedSet, visit)
}

func analyzeBody(info *types.Info, decl *ast.FuncDecl, lit *ast.FuncLit, spawned bool,
	body *ast.BlockStmt, seed cfg.Facts[Fact], visit func(*Body)) {

	g := cfg.New(body)
	in := cfg.Forward(g, cfg.Problem[Fact]{
		Transfer: func(n ast.Node, facts cfg.Facts[Fact]) { Step(info, n, facts) },
		Refine:   Refine(info),
	})
	// cfg.Forward starts the entry block empty; propagate the seeded
	// caller-held facts as a second overlay pass. Seeds travel the same
	// transfer (an Unlock of a seeded lock kills it like any other fact)
	// and union into the solved in-sets.
	if len(seed) > 0 {
		seedForward(g, in, info, seed)
	}
	b := &Body{Decl: decl, Lit: lit, Spawned: spawned, Graph: g, In: in, Seed: seed}
	visit(b)

	// Recurse into nested literals with their creation-point facts.
	for _, blk := range g.Blocks {
		facts := clone(in[blk])
		for _, n := range blk.Stmts {
			forEachImmediateLit(n, func(l *ast.FuncLit, goLaunched bool) {
				litSeed := cfg.Facts[Fact]{}
				if !goLaunched {
					for f := range facts {
						f.Seeded = true
						litSeed.Add(f)
					}
				}
				analyzeBody(info, decl, l, goLaunched, l.Body, litSeed, visit)
			})
			Step(info, n, facts)
		}
	}
}

// seedForward propagates the entry seed along the graph as an overlay:
// the seed flows through the same transfer (so an early Unlock of a
// seeded lock stops it there) and the result unions into the solved
// in-sets. Hand-rolled worklist because cfg.Forward has no notion of a
// non-empty entry set.
func seedForward(g *cfg.Graph, in map[*cfg.Block]cfg.Facts[Fact], info *types.Info, seed cfg.Facts[Fact]) {
	overlay := map[*cfg.Block]cfg.Facts[Fact]{}
	for _, blk := range g.Blocks {
		overlay[blk] = cfg.Facts[Fact]{}
	}
	for f := range seed {
		overlay[g.Entry].Add(f)
	}
	work := []*cfg.Block{g.Entry}
	queued := map[*cfg.Block]bool{g.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := clone(overlay[blk])
		for _, n := range blk.Stmts {
			Step(info, n, out)
			out.DeleteFunc(func(f Fact) bool { return !f.Seeded })
		}
		for _, succ := range blk.Succs {
			grew := false
			for f := range out {
				if !overlay[succ].Has(f) {
					overlay[succ].Add(f)
					grew = true
				}
			}
			if grew && !queued[succ] {
				queued[succ] = true
				work = append(work, succ)
			}
		}
	}
	for _, blk := range g.Blocks {
		for f := range overlay[blk] {
			in[blk].Add(f)
		}
	}
}

func clone(f cfg.Facts[Fact]) cfg.Facts[Fact] {
	out := cfg.Facts[Fact]{}
	for x := range f {
		out.Add(x)
	}
	return out
}

// forEachImmediateLit finds function literals lexically inside n that
// are not nested inside another literal of n, reporting whether each is
// the body of a `go` statement.
func forEachImmediateLit(n ast.Node, fn func(lit *ast.FuncLit, goLaunched bool)) {
	analysis.WalkStack(n, func(x ast.Node, stack []ast.Node) bool {
		lit, ok := x.(*ast.FuncLit)
		if !ok {
			return true
		}
		goLaunched := false
		if len(stack) >= 2 {
			if call, ok := stack[len(stack)-1].(*ast.CallExpr); ok && call.Fun == lit {
				if gs, ok := stack[len(stack)-2].(*ast.GoStmt); ok && gs.Call == call {
					goLaunched = true
				}
			}
		}
		fn(lit, goLaunched)
		return false // literals nested deeper belong to this literal's own pass
	})
}

// Held reports whether facts contain a lock for (root, path),
// returning the write-mode fact preferentially.
func Held(facts cfg.Facts[Fact], root types.Object, path string) (Fact, bool) {
	var hit Fact
	found := false
	for f := range facts {
		if f.Root != root || f.Path != path {
			continue
		}
		// Write mode outranks read mode; within a mode, the earliest
		// acquisition wins. The ranking must be total and independent of
		// fact-set iteration order, or diagnostics flicker between runs.
		better := !found ||
			(hit.Read && !f.Read) ||
			(hit.Read == f.Read && f.Pos < hit.Pos)
		if better {
			hit, found = f, true
		}
	}
	return hit, found
}
