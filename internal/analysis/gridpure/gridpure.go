// Package gridpure checks that cell functions handed to the par
// scheduler are pure functions of their index.
//
// par.Map and par.Grid (and their MapPolicy/GridPolicy variants)
// promise results that are byte-identical at any worker count. That guarantee holds because every cell is a pure
// function of its task index and results are written only into the
// scheduler's own index-ordered slots. A cell closure that writes to
// a variable captured from the enclosing scope (an accumulator, a
// shared map, a "last row wins" scalar) reintroduces scheduling order
// into the results — the exact failure mode the scheduler exists to
// prevent, and one the race detector only catches when two writes
// happen to collide during the test run.
//
// Reads of captured state are fine (configuration, inputs); writes
// into distinct elements of a captured slice are fine too, because the
// idiomatic cell writes only its own index. Everything else needs a
// `//ldis:nondet-ok <why>` annotation.
//
// The check also covers internal/exp's wrappers over the scheduler
// (runGrid, runNamedGrid): experiments hand their cells to those, not
// to par directly, and the purity contract rides through unchanged.
package gridpure

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ldis/internal/analysis"
)

// Analyzer is the gridpure analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "gridpure",
	Doc:  "cell functions passed to par.Map/Grid/MapPolicy/GridPolicy (or the exp.runGrid/runNamedGrid wrappers and the hierarchy.RunSharded shard scheduler over them) must not write captured variables (except distinct slice elements)",
	Run:  run,
}

// cellTakers maps package path -> entry points whose final argument is
// a cell function handed to the scheduler. Besides par's own entry
// points this covers internal/exp's grid wrappers, so every experiment
// cell — including the mrc curve cells — is checked at its natural
// call site rather than only where par is invoked directly.
var cellTakers = map[string]map[string]bool{
	"ldis/internal/par": {
		"Map": true, "Grid": true, "MapPolicy": true, "GridPolicy": true,
	},
	"ldis/internal/exp": {
		"runGrid": true, "runNamedGrid": true,
	},
	// The intra-run shard scheduler: its trailing build closure runs
	// once per shard and the systems it returns are driven
	// concurrently, so it carries the same purity contract as a grid
	// cell.
	"ldis/internal/hierarchy": {
		"RunSharded": true,
	},
}

// takesCell reports whether the callee is a scheduler entry point (or
// wrapper). Fixture packages under this analyzer's testdata tree match
// by function name alone so the golden tests can model wrappers
// without replicating real package paths.
func takesCell(callee *types.Func) bool {
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	path := callee.Pkg().Path()
	if names, ok := cellTakers[path]; ok {
		return names[callee.Name()]
	}
	if strings.Contains(path, "/gridpure/testdata/") {
		for _, names := range cellTakers {
			if names[callee.Name()] {
				return true
			}
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	pass.Directives.CheckJustifications(pass, analysis.DirNondetOK)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			callee := staticCallee(pass.TypesInfo, call)
			if !takesCell(callee) {
				return true
			}
			// The cell function is the final parameter of every
			// scheduler entry point.
			lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true
			}
			checkCell(pass, callee.Pkg().Name()+"."+callee.Name(), lit)
			return true
		})
	}
	return nil
}

func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // explicit instantiation: par.Map[int](...)
		return staticCallee(info, &ast.CallExpr{Fun: fun.X})
	}
	return nil
}

// checkCell walks the cell closure's body and reports writes to
// variables captured from outside it.
func checkCell(pass *analysis.Pass, schedName string, lit *ast.FuncLit) {
	report := func(pos token.Pos, obj *types.Var, how string) {
		pass.ReportfSup(pos, analysis.DirNondetOK, "%s cell function %s captured variable %q; cells must be pure functions of their index so results are byte-identical at any worker count", schedName, how, obj.Name())
	}
	captured := func(id *ast.Ident) *types.Var {
		obj, _ := pass.TypesInfo.Uses[id].(*types.Var)
		if obj == nil {
			return nil
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return nil // declared inside the cell
		}
		return obj
	}
	checkLHS := func(lhs ast.Expr) {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if obj := captured(e); obj != nil {
				report(e.Pos(), obj, "writes")
			}
		case *ast.IndexExpr:
			root, isMap := rootIdent(pass.TypesInfo, e)
			if root == nil {
				return
			}
			if obj := captured(root); obj != nil && isMap {
				report(e.Pos(), obj, "writes a map element of")
			}
			// Slice-element writes to captured slices are the sanctioned
			// result pattern (each cell owns its index); not reported.
		case *ast.SelectorExpr:
			if root, _ := rootIdent(pass.TypesInfo, e); root != nil {
				if obj := captured(root); obj != nil {
					report(e.Pos(), obj, "writes a field of")
				}
			}
		case *ast.StarExpr:
			if root, _ := rootIdent(pass.TypesInfo, e); root != nil {
				if obj := captured(root); obj != nil {
					report(e.Pos(), obj, "writes through pointer")
				}
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if s.Tok == token.DEFINE {
					continue // new local
				}
				checkLHS(lhs)
			}
		case *ast.IncDecStmt:
			checkLHS(s.X)
		}
		return true
	})
}

// rootIdent walks to the base identifier of an lvalue chain and
// reports whether the innermost index step (if any) indexes a map.
func rootIdent(info *types.Info, e ast.Expr) (*ast.Ident, bool) {
	isMap := false
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, isMap
		case *ast.IndexExpr:
			if tv, ok := info.Types[x.X]; ok {
				if _, m := tv.Type.Underlying().(*types.Map); m {
					isMap = true
				}
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, isMap
		}
	}
}
