package analysis

import (
	"go/ast"
	"go/types"
)

// EvalShare flags a *core.Evaluator value (under any alias, such as
// core.DeltaEvaluator) that crosses a goroutine boundary directly —
// captured by a `go` function literal, passed as a `go` call argument,
// used as a `go` method receiver, or sent on a channel. Evaluators are stateful
// (every Eval overwrites their buffers), so internal/portfolio/pool.go
// documents the ownership rule: an evaluator is owned by exactly one
// goroutine at a time, and workers obtain theirs through the pool's
// lease API (get/put, or forEach which leases per worker). A worker
// that leases its own evaluator *inside* the spawned goroutine is
// fine — the analyzer only fires when an evaluator value created
// outside the goroutine crosses into it.
//
// core.FactorTable is the sanctioned exception to the single-owner
// rule: it is immutable after NewFactorTable returns, so sharing one
// table across pooled evaluators and goroutines is exactly its
// purpose and is never flagged. What IS flagged is the thing that
// would break the sanction: writing a FactorTable field anywhere but
// inside core's NewFactorTable constructor.
var EvalShare = &Analyzer{
	Name:   "evalshare",
	Waiver: "evalshare",
	Doc: `flag evaluators crossing goroutine boundaries outside the portfolio pool lease API

core.Evaluator (alias core.DeltaEvaluator) is single-owner: every
Eval overwrites shared buffers. Workers must lease their own evaluator via
the portfolio pool (get/put or forEach) inside the goroutine instead
of capturing one from the spawning scope or receiving one on a
channel. core.FactorTable is read-only after construction and may be
shared freely; mutating its fields outside core.NewFactorTable is
flagged instead. Waive a justified exception with
//wfvet:evalshare <reason>.`,
	Run: runEvalShare,
}

// isEvaluatorPtr reports whether t is *core.Evaluator. Aliases (such
// as core.DeltaEvaluator) are resolved first, so every name of the
// type is caught.
func isEvaluatorPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return isCoreNamed(ptr.Elem(), "Evaluator")
}

// isCoreNamed reports whether t, with aliases resolved, is the named
// type core.<name>.
func isCoreNamed(t types.Type, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil &&
		lastSegment(obj.Pkg().Path()) == "core" &&
		obj.Name() == name
}

// isFactorTable reports whether t is core.FactorTable or a pointer to
// it. Value copies count too: a copied struct still aliases the
// original's factor slices, so writing through a copy mutates the
// shared table all the same.
func isFactorTable(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return isCoreNamed(t, "FactorTable")
}

func runEvalShare(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkGoCall(pass, n.Call)
			case *ast.SendStmt:
				if t := pass.TypesInfo.TypeOf(n.Value); t != nil && isEvaluatorPtr(t) {
					pass.Reportf(n.Pos(),
						"%s sent on a channel transfers evaluator ownership outside the portfolio pool lease API (internal/portfolio/pool.go); lease per worker with pool get/put or forEach",
						exprString(pass.Fset, n.Value))
				}
			}
			return true
		})
		checkFactorMutation(pass, file)
	}
	return nil
}

// checkFactorMutation flags writes to core.FactorTable fields. The
// table's immutability is what sanctions sharing it across pooled
// evaluators without the lease API, so the only place allowed to
// write its fields is core's NewFactorTable constructor.
func checkFactorMutation(pass *Pass, file *ast.File) {
	inCore := lastSegment(pass.Pkg.Path()) == "core"
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if inCore && fd.Recv == nil && fd.Name.Name == "NewFactorTable" {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					reportFactorWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				reportFactorWrite(pass, n.X)
			}
			return true
		})
	}
}

// reportFactorWrite reports lhs when it writes through a FactorTable
// field (t.coef = ..., t.fw[i] = ..., t.fw[i]++, ...).
func reportFactorWrite(pass *Pass, lhs ast.Expr) {
	for {
		ix, ok := lhs.(*ast.IndexExpr)
		if !ok {
			break
		}
		lhs = ix.X
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if t := pass.TypesInfo.TypeOf(sel.X); t != nil && isFactorTable(t) {
		pass.Reportf(lhs.Pos(),
			"%s writes a core.FactorTable field: the table is immutable after NewFactorTable — that immutability is what sanctions sharing it across pooled evaluators; build a new table instead",
			exprString(pass.Fset, lhs))
	}
}

func checkGoCall(pass *Pass, call *ast.CallExpr) {
	// go func() { ... uses ev ... }(): an evaluator captured from the
	// spawning scope is shared between two goroutines.
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		reportCapturedEvaluators(pass, lit)
	}
	// go ev.run() / go run(ev): the evaluator crosses into the new
	// goroutine as receiver or argument.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if t := pass.TypesInfo.TypeOf(sel.X); t != nil && isEvaluatorPtr(t) {
			pass.Reportf(sel.Pos(),
				"%s used as a goroutine method receiver escapes its owner; lease inside the goroutine via the portfolio pool (internal/portfolio/pool.go)",
				exprString(pass.Fset, sel.X))
		}
	}
	for _, arg := range call.Args {
		if t := pass.TypesInfo.TypeOf(arg); t != nil && isEvaluatorPtr(t) {
			pass.Reportf(arg.Pos(),
				"%s passed to a goroutine escapes its owner; lease inside the goroutine via the portfolio pool (internal/portfolio/pool.go)",
				exprString(pass.Fset, arg))
		}
	}
}

// reportCapturedEvaluators reports every evaluator-typed variable
// that lit uses but does not declare — i.e. captures from the
// spawning goroutine's scope.
func reportCapturedEvaluators(pass *Pass, lit *ast.FuncLit) {
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || seen[v] || !isEvaluatorPtr(v.Type()) {
			return true
		}
		// Declared inside the literal (including its parameters):
		// owned by the new goroutine, not captured.
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		seen[v] = true
		pass.Reportf(id.Pos(),
			"%s captured by a go func literal is shared across goroutines outside the portfolio pool lease API (internal/portfolio/pool.go); lease inside the goroutine with pool get/put or forEach",
			id.Name)
		return true
	})
}
