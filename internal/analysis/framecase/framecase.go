// Package framecase enforces exhaustive handling of protocol
// enumerations: every `switch` whose tag has a type marked
// `//aggvet:exhaustive` must either cover all declared constants of
// that type or carry a `default` clause that explicitly terminates
// (return or panic) — so adding a new wire frame kind without teaching
// every dispatch point about it becomes a lint failure instead of a
// silently dropped frame.
//
// The marker goes on the type declaration:
//
//	//aggvet:exhaustive
//	type frameKind byte
//
// Constants are collected package-wide: every package-level constant
// whose type is exactly the marked named type counts as a declared
// kind, wherever it is declared. A `default` satisfies the check only
// if its body contains a return or panic outside nested function
// literals — an empty or fall-through default is precisely the silent
// frame drop the rule exists to prevent. A default that deliberately
// maps unknown kinds to a value (`default: return headerSize`) is
// accepted: it is an explicit decision, visible in review.
package framecase

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"parallelagg/internal/analysis"
)

// marker is the opt-in directive on a type declaration.
const marker = "aggvet:exhaustive"

var Analyzer = &analysis.Analyzer{
	Name: "framecase",
	Doc: "switches over //aggvet:exhaustive types must handle every constant\n\n" +
		"A switch whose tag has a type marked //aggvet:exhaustive (the wire\n" +
		"frame-kind enum) must list every declared constant of that type,\n" +
		"or have a default that returns or panics. Without this, adding a control\n" +
		"frame kind silently falls through old dispatch switches.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// Marked named types, by their *types.TypeName.
	marked := make(map[*types.TypeName]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !hasMarker(gd.Doc) && !hasMarker(ts.Doc) && !hasMarker(ts.Comment) {
					continue
				}
				if tn, ok := info.Defs[ts.Name].(*types.TypeName); ok {
					marked[tn] = true
				}
			}
		}
	}
	if len(marked) == 0 {
		return nil
	}

	// All package-level constants of each marked type.
	consts := make(map[*types.TypeName][]*types.Const)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		cn, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if tn := markedTypeName(cn.Type(), marked); tn != nil {
			consts[tn] = append(consts[tn], cn)
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := info.Types[sw.Tag]
			if !ok || tv.Type == nil {
				return true
			}
			tn := markedTypeName(tv.Type, marked)
			if tn == nil {
				return true
			}
			checkSwitch(pass, sw, tn, consts[tn])
			return true
		})
	}
	return nil
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt, tn *types.TypeName, declared []*types.Const) {
	covered := make(map[*types.Const]bool)
	var deflt *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			deflt = cc
			continue
		}
		for _, e := range cc.List {
			if cn := constOf(pass.TypesInfo, e); cn != nil {
				covered[cn] = true
			}
		}
	}

	var missing []string
	for _, cn := range declared {
		if !covered[cn] {
			missing = append(missing, cn.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)

	if deflt == nil {
		pass.Reportf(sw.Pos(),
			"switch on %s does not cover %s and has no default: handle every declared kind, or add a default that returns an error",
			tn.Name(), strings.Join(missing, ", "))
		return
	}
	if !terminates(deflt) {
		pass.Reportf(sw.Pos(),
			"switch on %s does not cover %s and its default falls through silently: unknown kinds must be rejected with a return or panic",
			tn.Name(), strings.Join(missing, ", "))
	}
}

// terminates reports whether the default clause explicitly leaves the
// enclosing function: a return or panic anywhere in its body, nested
// function literals excluded (their returns do not return here).
func terminates(cc *ast.CaseClause) bool {
	found := false
	for _, stmt := range cc.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				found = true
				return false
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
					found = true
					return false
				}
			}
			return true
		})
	}
	return found
}

// constOf resolves a case expression to the package-level constant it
// names, through plain and qualified identifiers.
func constOf(info *types.Info, e ast.Expr) *types.Const {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		cn, _ := info.Uses[e].(*types.Const)
		return cn
	case *ast.SelectorExpr:
		cn, _ := info.Uses[e.Sel].(*types.Const)
		return cn
	}
	return nil
}

// markedTypeName returns the *types.TypeName of t if t is a marked
// named type (aliases resolved), else nil.
func markedTypeName(t types.Type, marked map[*types.TypeName]bool) *types.TypeName {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil
	}
	if tn := named.Obj(); marked[tn] {
		return tn
	}
	return nil
}

func hasMarker(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text, ok := strings.CutPrefix(c.Text, "//")
		if !ok {
			continue
		}
		if strings.TrimSpace(text) == marker || strings.HasPrefix(strings.TrimSpace(text), marker+" ") {
			return true
		}
	}
	return false
}
