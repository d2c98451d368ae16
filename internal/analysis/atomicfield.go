package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicFieldAnalyzer enforces the hot-swap server's invariant: a struct
// field shared between goroutines is a typed atomic (atomic.Int64,
// atomic.Pointer, …), never a plain field handed to sync/atomic by address
// (atomic.AddInt64(&s.n, 1)). A typed atomic cannot be read or written
// plainly at all, so the torn read or lost write of mixing atomic and plain
// access to one field is unrepresentable; an address-based call is the only
// way to write that mix, so forbidding it catches every instance.
var AtomicFieldAnalyzer = &Analyzer{
	Name: "atomicfield",
	Doc: "no sync/atomic function may take the address of a struct field; " +
		"use a typed atomic",
	Run: runAtomicField,
}

func runAtomicField(pass *Pass) error {
	for _, file := range pass.AllTyped() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
					pass.Reportf(un.Pos(),
						"sync/atomic call on the address of field %s; make the field a typed atomic",
						types.ExprString(sel))
				}
			}
			return true
		})
	}
	return nil
}

// isAtomicCall reports whether call invokes a package-level function of
// sync/atomic.
func isAtomicCall(pass *Pass, call *ast.CallExpr) bool {
	f := calleeFunc(pass.Info, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == "sync/atomic" &&
		f.Type().(*types.Signature).Recv() == nil
}
