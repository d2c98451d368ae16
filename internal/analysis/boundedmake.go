package analysis

import (
	"go/ast"
	"go/types"
)

// BoundedMakeAnalyzer generalizes the hardened LoadCodesLimit pattern:
// an allocation whose size comes from decoded input (json/binary.Read, a
// byte-order header read, an int read off the cluster wire, or a parsed
// request parameter) must be preceded by
// a bound check, or an attacker-controlled header sizes the allocation. The
// taint analysis is intraprocedural and string-keyed: a value is tainted by
// flowing (through assignments and conversions) from a decode source, and
// sanitized once it appears in any comparison (an if/for/switch condition)
// or under the min builtin at the allocation site. len/cap of decoded data
// do not taint — they are bounded by bytes actually received, which is
// exactly the property the streamed LoadCodesLimit loader relies on.
var BoundedMakeAnalyzer = &Analyzer{
	Name: "boundedmake",
	Doc: "make() sized by a decoded or request-supplied value needs a bound " +
		"check against a budget first (the hardened LoadCodesLimit pattern)",
	Run: runBoundedMake,
}

// taintSources lists package-level or method callees whose outputs (or
// pointed-to arguments) are attacker-controlled. Key: package path suffix;
// value: function or method names and which argument is the decode target
// (-1 means the return value is the source).
type taintSource struct {
	pkg  string
	name string
	arg  int // index of the pointer argument decoded into; -1 = return value
}

var taintSources = []taintSource{
	{"encoding/json", "Decode", 0},    // (*Decoder).Decode(&v)
	{"encoding/json", "Unmarshal", 1}, // json.Unmarshal(b, &v)
	{"encoding/binary", "Read", 2},    // binary.Read(r, order, &v)
	{"encoding/binary", "Uint16", -1}, // order.Uint16(b) header reads
	{"encoding/binary", "Uint32", -1},
	{"encoding/binary", "Uint64", -1},
	{"encoding/binary", "ReadUvarint", -1},
	{"encoding/binary", "ReadVarint", -1},
	{"cluster", "Int", -1}, // (*WireReader).Int; counts go through WireReader.Len
	{"strconv", "Atoi", -1},
	{"strconv", "ParseInt", -1},
	{"strconv", "ParseUint", -1},
	{"strconv", "ParseFloat", -1},
}

func runBoundedMake(pass *Pass) error {
	for _, file := range pass.AllTyped() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBoundedMakes(pass, fd.Body)
		}
	}
	return nil
}

func checkBoundedMakes(pass *Pass, body *ast.BlockStmt) {
	tainted := map[string]bool{}

	// Seed: decode targets and header-read results.
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			src := matchTaintSource(pass, s)
			if src == nil || src.arg < 0 || src.arg >= len(s.Args) {
				return true
			}
			if key := taintKey(pass, s.Args[src.arg]); key != "" {
				tainted[key] = true
			}
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if src := matchTaintSource(pass, call); src != nil && src.arg == -1 {
					for _, lhs := range s.Lhs {
						if key := taintKey(pass, lhs); key != "" {
							tainted[key] = true
						}
					}
				}
			}
		}
		return true
	})

	// Propagate through assignments until fixed point.
	for {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				key := taintKey(pass, lhs)
				if key == "" || tainted[key] {
					continue
				}
				var rhs ast.Expr
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				} else if len(as.Rhs) == 1 {
					rhs = as.Rhs[0]
				} else {
					continue
				}
				if mentionsTaint(pass, rhs, tainted) {
					tainted[key] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	if len(tainted) == 0 {
		return
	}

	// Sanitize: any tainted key that appears in a condition is considered
	// bound-checked (flow-insensitively; this is a convention gate, not a
	// verifier).
	checked := map[string]bool{}
	markChecked := func(cond ast.Expr) {
		if cond == nil {
			return
		}
		ast.Inspect(cond, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if key := taintKey(pass, e); key != "" && tainted[key] {
					checked[key] = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			markChecked(s.Cond)
		case *ast.ForStmt:
			markChecked(s.Cond)
		case *ast.SwitchStmt:
			markChecked(s.Tag)
		case *ast.CaseClause:
			for _, e := range s.List {
				markChecked(e)
			}
		}
		return true
	})

	// Report unguarded makes.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isBuiltinCall(pass, call, "make") || len(call.Args) < 2 {
			return true
		}
		for _, size := range call.Args[1:] {
			if key := unguardedTaint(pass, size, tainted, checked); key != "" {
				pass.Reportf(size.Pos(),
					"make sized by %q, which flows from decoded input with no bound check against a budget (see retrieval.LoadCodesLimit)",
					key)
			}
		}
		return true
	})
}

// matchTaintSource resolves the called function against the source table.
func matchTaintSource(pass *Pass, call *ast.CallExpr) *taintSource {
	f := calleeFunc(pass.Info, call)
	if f == nil || f.Pkg() == nil {
		return nil
	}
	for i := range taintSources {
		s := &taintSources[i]
		if f.Name() == s.name && pathMatches(f.Pkg().Path(), s.pkg) {
			return s
		}
	}
	return nil
}

// taintKey renders an lvalue-ish expression as a stable string key: idents
// and dotted selector paths rooted in an ident ("hdr", "w.L"). Anything else
// (calls, indexing) keys as "" and is not tracked.
func taintKey(pass *Pass, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return ""
		}
		return x.Name
	case *ast.SelectorExpr:
		// Skip package-qualified names; a package is not a local value.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if _, isPkg := pass.Info.Uses[id].(*types.PkgName); isPkg {
				return ""
			}
		}
		base := taintKey(pass, x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.UnaryExpr:
		return taintKey(pass, x.X)
	case *ast.CallExpr:
		// Conversions like int(n) or uint64(n) keep the key of their single
		// operand; real calls break the chain (len/cap deliberately so).
		if len(x.Args) == 1 {
			if _, isConv := pass.Info.Types[x.Fun]; isConv && pass.Info.Types[x.Fun].IsType() {
				return taintKey(pass, x.Args[0])
			}
		}
		return ""
	}
	return ""
}

// mentionsTaint reports whether expr references any tainted key, ignoring
// subexpressions under len/cap (bounded by data actually received).
func mentionsTaint(pass *Pass, e ast.Expr, tainted map[string]bool) bool {
	found := false
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		if e == nil || found {
			return
		}
		if key := taintKey(pass, e); key != "" {
			// A key taints if it, or any prefix path of it, is tainted: w.L
			// is tainted when w is.
			if taintedByPrefix(key, tainted) {
				found = true
				return
			}
		}
		switch x := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.SelectorExpr:
			walk(x.X)
		case *ast.IndexExpr:
			walk(x.X)
			walk(x.Index)
		case *ast.CallExpr:
			if isBuiltinCall(pass, x, "len") || isBuiltinCall(pass, x, "cap") {
				return // len/cap of tainted data is bounded
			}
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return found
}

// isBuiltinCall reports whether call invokes the named predeclared builtin.
func isBuiltinCall(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

func taintedByPrefix(key string, tainted map[string]bool) bool {
	for {
		if tainted[key] {
			return true
		}
		i := lastDot(key)
		if i < 0 {
			return false
		}
		key = key[:i]
	}
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

// unguardedTaint returns the first tainted-and-unchecked key a make size
// expression mentions, or "". Subexpressions under the min builtin are
// considered bounded.
func unguardedTaint(pass *Pass, e ast.Expr, tainted, checked map[string]bool) string {
	var bad string
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		if e == nil || bad != "" {
			return
		}
		if key := taintKey(pass, e); key != "" && taintedByPrefix(key, tainted) {
			if !checkedByPrefix(key, checked) {
				bad = key
			}
			return
		}
		switch x := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.IndexExpr:
			walk(x.X)
			walk(x.Index)
		case *ast.CallExpr:
			if isBuiltinCall(pass, x, "min") || isBuiltinCall(pass, x, "len") ||
				isBuiltinCall(pass, x, "cap") {
				return // bounded by construction
			}
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return bad
}

func checkedByPrefix(key string, checked map[string]bool) bool {
	for {
		if checked[key] {
			return true
		}
		i := lastDot(key)
		if i < 0 {
			return false
		}
		key = key[:i]
	}
}
