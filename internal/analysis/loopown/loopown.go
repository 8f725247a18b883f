// Package loopown enforces single-goroutine ownership of struct
// fields: a field annotated `//aggvet:owner <tag>` may only be touched
// by functions reachable — on the same goroutine — from a function
// marked `//aggvet:loop <tag>`. Everything else must hand its update
// to the owning loop over a channel. This is the recover.go
// control-loop discipline, checked mechanically: the merge/duty state
// below the "control-loop state" divider is mutated by exactly one
// goroutine, so it needs no locks, and a new code path that reaches in
// from a reader goroutine is a data race even if today's interleavings
// never trip the race detector.
//
// Reachability runs over the package call graph, following plain and
// deferred calls but not `go` statements (a spawned goroutine is, by
// definition, not the loop's goroutine). Two deliberate carve-outs:
// composite literal construction (`tnode{pending: ...}`) names fields
// before any goroutine exists and uses plain keys, not selectors, so
// it never triggers; and a function literal lexically inside an owning
// function is treated as owning too, with its same-goroutine callees —
// unless it is the operand of a `go` statement — so loop code may pass
// comparators to sort.Slice, or visitors to a table walk, without losing
// ownership.
//
// An `//aggvet:owner` tag with no matching `//aggvet:loop` function in
// the package is itself reported: an unenforceable annotation is a
// misconfiguration, not a pass.
package loopown

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"parallelagg/internal/analysis"
)

const (
	ownerMarker = "aggvet:owner"
	loopMarker  = "aggvet:loop"
)

var Analyzer = &analysis.Analyzer{
	Name: "loopown",
	Doc: "fields marked //aggvet:owner <tag> may only be touched by the <tag> loop\n\n" +
		"A struct field annotated //aggvet:owner <tag> belongs to the goroutine\n" +
		"running the //aggvet:loop <tag> function: only that function and its\n" +
		"same-goroutine callees may read or write the field. Other goroutines\n" +
		"send the loop a message instead of reaching into its state.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// Annotated fields, and the first annotated field per tag (for the
	// missing-loop diagnostic).
	owners := make(map[*types.Var]string)
	firstField := make(map[string]*ast.Ident)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				tag, ok := directiveTag(ownerMarker, field.Doc, field.Comment)
				if !ok {
					continue
				}
				for _, name := range field.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						owners[v] = tag
						if prev, ok := firstField[tag]; !ok || name.Pos() < prev.Pos() {
							firstField[tag] = name
						}
					}
				}
			}
			return true
		})
	}
	if len(owners) == 0 {
		return nil
	}

	graph := analysis.BuildCallGraph(pass.Files, pass.TypesInfo)

	// Loop roots by tag.
	roots := make(map[string][]*analysis.FuncNode)
	for _, n := range graph.Nodes {
		if n.Decl == nil {
			continue
		}
		if tag, ok := directiveTag(loopMarker, n.Decl.Doc); ok {
			roots[tag] = append(roots[tag], n)
		}
	}

	// Every owner tag needs an enforcing loop.
	tags := make([]string, 0, len(firstField))
	for tag := range firstField {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	reach := make(map[string]map[*analysis.FuncNode]bool, len(tags))
	for _, tag := range tags {
		if len(roots[tag]) == 0 {
			pass.Reportf(firstField[tag].Pos(),
				"field %s is marked //aggvet:owner %s but no function is marked //aggvet:loop %s: the ownership claim is unenforceable",
				firstField[tag].Name, tag, tag)
			continue
		}
		r := graph.Reachable(roots[tag], true)
		lexicalClose(r, graph, pass.Files)
		reach[tag] = r
	}

	// Check every selector access against the field's owner reach.
	for _, n := range graph.Nodes {
		node := n
		analysis.WalkStack(n.Body(), func(x ast.Node, stack []ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok && lit != node.Lit {
				return false // the literal is its own node, checked separately
			}
			sel, ok := x.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			v, ok := info.Uses[sel.Sel].(*types.Var)
			if !ok {
				return true
			}
			tag, owned := owners[v]
			if !owned {
				return true
			}
			r := reach[tag]
			if r == nil || r[node] {
				return true // no enforceable loop, or we are the loop
			}
			pass.Reportf(sel.Sel.Pos(),
				"field %s is owned by the %q loop goroutine (//aggvet:owner %s): only //aggvet:loop %s and its same-goroutine callees may touch it; send the %s loop a message instead",
				v.Name(), tag, tag, tag, tag)
			return true
		})
	}
	return nil
}

// lexicalClose extends reach to function literals written inside an
// owning function, and to their same-goroutine callees, except literals
// launched with `go`: a sort.Slice comparator in the loop body is loop
// code, and so is what it calls; a spawned goroutine is not.
func lexicalClose(reach map[*analysis.FuncNode]bool, graph *analysis.CallGraph, files []*ast.File) {
	encloser := make(map[*analysis.FuncNode]*analysis.FuncNode)
	spawned := make(map[*analysis.FuncNode]bool)
	for _, f := range files {
		analysis.WalkStack(f, func(x ast.Node, stack []ast.Node) bool {
			lit, ok := x.(*ast.FuncLit)
			if !ok {
				return true
			}
			node := graph.LitNode(lit)
			if node == nil {
				return true
			}
			for i := len(stack) - 1; i >= 0; i-- {
				switch outer := stack[i].(type) {
				case *ast.FuncLit:
					encloser[node] = graph.LitNode(outer)
				case *ast.FuncDecl:
					for _, n := range graph.Nodes {
						if n.Decl == outer {
							encloser[node] = n
						}
					}
				default:
					continue
				}
				break
			}
			// `go func(){...}(...)`: the literal is the goroutine body.
			if len(stack) >= 2 {
				if call, ok := stack[len(stack)-1].(*ast.CallExpr); ok && call.Fun == lit {
					if gs, ok := stack[len(stack)-2].(*ast.GoStmt); ok && gs.Call == call {
						spawned[node] = true
					}
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for lit, outer := range encloser {
			if !reach[lit] && !spawned[lit] && outer != nil && reach[outer] {
				for n := range graph.Reachable([]*analysis.FuncNode{lit}, true) {
					reach[n] = true
				}
				changed = true
			}
		}
	}
}

// directiveTag scans comment groups for "//<marker> <tag>" and returns
// the tag.
func directiveTag(marker string, groups ...*ast.CommentGroup) (string, bool) {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue
			}
			rest, ok := strings.CutPrefix(strings.TrimSpace(text), marker)
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) >= 1 && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
				return fields[0], true
			}
		}
	}
	return "", false
}
