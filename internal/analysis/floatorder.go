package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatOrderAnalyzer enforces the bit-identical-reduction invariant from
// PR 5: inside a core.ParallelChunks or core.CountChunks closure, a
// floating-point `+=` (or any compound float assignment) into storage shared
// across chunks makes the summation order — and therefore the result —
// depend on the worker count.
// The sanctioned pattern (the fixture's perWorkerSlots): accumulate into
// per-chunk (or per-worker) slots addressed by a closure-local index, then
// reduce serially in fixed chunk order on a grid that depends only on N.
//
// Integer accumulators are exempt: integer addition is exactly associative,
// so any interleaving yields the same value.
var FloatOrderAnalyzer = &Analyzer{
	Name: "floatorder",
	Doc: "float accumulation into cross-chunk shared storage inside a " +
		"core.ParallelChunks or core.CountChunks closure is worker-count " +
		"dependent; reduce per-chunk slots on a fixed grid instead",
	Run: runFloatOrder,
}

func runFloatOrder(pass *Pass) error {
	for _, file := range pass.AllTyped() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 3 {
				return true
			}
			callee := calleeFunc(pass.Info, call)
			if !isPkgFunc(callee, "core", "ParallelChunks") && !isPkgFunc(callee, "core", "CountChunks") {
				return true
			}
			closure, ok := ast.Unparen(call.Args[2]).(*ast.FuncLit)
			if !ok {
				return true
			}
			checkChunkClosure(pass, closure, callee.Name())
			return true
		})
	}
	return nil
}

// checkChunkClosure flags unordered float accumulation in one chunk closure.
// pool names the chunking function in the diagnostic.
func checkChunkClosure(pass *Pass, closure *ast.FuncLit, pool string) {
	local := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= closure.Pos() && obj.Pos() <= closure.End()
	}
	ast.Inspect(closure.Body, func(n ast.Node) bool {
		var lhs ast.Expr
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.ASSIGN || s.Tok == token.DEFINE || len(s.Lhs) != 1 {
				return true
			}
			lhs = s.Lhs[0]
		case *ast.IncDecStmt:
			lhs = s.X
		default:
			return true
		}
		t := pass.Info.Types[lhs].Type
		if t == nil || !isFloat(t) {
			return true
		}
		root := rootObject(pass.Info, lhs)
		if root == nil || local(root) {
			return true
		}
		// Indexed writes into shared storage are the sanctioned per-slot
		// pattern — but only when the slot index is derived from closure
		// state (the worker id, or a chunk index computed from lo/hi). An
		// index captured from outside the closure is shared too.
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && indexUsesLocal(pass, idx.Index, local) {
			return true
		}
		pass.Reportf(lhs.Pos(),
			"float accumulation into %q shared across %s chunks: summation order depends on the worker count; use per-chunk slots reduced on a fixed grid",
			types.ExprString(lhs), pool)
		return true
	})
}

// indexUsesLocal reports whether the index expression mentions any object
// declared inside the closure (its parameters or locals).
func indexUsesLocal(pass *Pass, index ast.Expr, local func(types.Object) bool) bool {
	found := false
	ast.Inspect(index, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && local(pass.Info.Uses[id]) {
			found = true
		}
		return !found
	})
	return found
}
