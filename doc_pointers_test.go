package parmac

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var (
	docNameRE = regexp.MustCompile(`\b[A-Z][A-Z0-9_]*\.md\b`)
	pkgPathRE = regexp.MustCompile(`\b(?:cmd|internal)/[a-z][a-z0-9-]*`)
)

// TestDocPointersResolve fails on a comment or document that cites an
// UPPERCASE.md file or a cmd/<name> / internal/<pkg> directory that does not
// exist. It scans comments of non-test Go files and the living documents;
// ROADMAP.md, CHANGES.md, ISSUE.md and REVIEW.md are history and not scanned.
func TestDocPointersResolve(t *testing.T) {
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	check := func(file, text string) {
		for _, name := range docNameRE.FindAllString(text, -1) {
			if !exists(name) && !exists(filepath.Join(filepath.Dir(file), name)) {
				t.Errorf("%s cites %s, which does not exist", file, name)
			}
		}
		for _, path := range pkgPathRE.FindAllString(text, -1) {
			if !exists(path) {
				t.Errorf("%s cites %s, which does not exist", file, path)
			}
		}
	}

	for _, doc := range []string{"README.md", "bench/README.md", "internal/analysis/README.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		check(doc, string(data))
	}

	walkGoSources(t, func(path string, f *ast.File) {
		for _, group := range f.Comments {
			check(path, group.Text())
		}
	})
}

// twinNameRE matches the names of second bodies for one operation: serial
// references, dense or brute-force oracles and parallel variants.
var twinNameRE = regexp.MustCompile(`^BruteForce|(Serial|Dense|Oracle|Parallel)$`)

// twinAllowlist names the twins production code may keep.
var twinAllowlist = map[string]bool{
	// An alias of Encode, called by the benchmark module (bench/serve.go);
	// a benchmark-only change retires it.
	"(*binauto.Model).EncodeParallel": true,
}

// TestNoTwinsInProductionCode fails on a top-level function or method of
// non-test code (outside bench/) whose name marks it as a second body for
// one operation. Each operation has one function that takes a worker count
// (core.Cores semantics); reference implementations live in _test.go files
// next to the tests that use them.
func TestNoTwinsInProductionCode(t *testing.T) {
	walkGoSources(t, func(path string, f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !twinNameRE.MatchString(fd.Name.Name) {
				continue
			}
			if name := qualifiedName(f.Name.Name, fd); !twinAllowlist[name] {
				t.Errorf("%s: %s is a second body for one operation; fold it into one function that takes a worker count, or move it into a _test.go file", path, name)
			}
		}
	}, "bench")
}

// orphanAllowlist names the exported functions under internal/ that no
// non-test code names, and the exported fields there that no non-test code
// sets, each with the reason it stays. TestNoOrphanedFuncs fails if it grows
// past one entry.
var orphanAllowlist = map[string]string{
	"cluster.WithInboxCapacity": "the in-process fabric's inbox bound, set by the backpressure conformance scenario",
}

// TestNoOrphanedFuncs fails on an exported function or method declared in
// non-test code under internal/ that no non-test code uses, in this module or
// in bench/: one that only its own tests call is dead code or a second way to
// do one thing. Both modules are type-checked, and a use is an identifier
// that resolves to the function, a selector's included. A method is exempt when its
// receiver implements an interface with a method of that name: one declared
// in either module or in a package they import, error, or the Unwrap method
// errors.Is and errors.As look for.
//
// It fails, too, on an exported field of an exported struct type declared in
// non-test code under internal/ that no non-test code sets: a knob only
// tests turn is a configuration no workload runs. A field is set by a
// composite-literal element (keyed or positional), an assignment, ++ or --,
// or by taking its address.
func TestNoOrphanedFuncs(t *testing.T) {
	var pkgs []*analysis.Package
	for _, dir := range []string{".", "bench"} {
		loaded, err := analysis.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, loaded...)
	}
	// Each package is checked on its own and sees the others through export
	// data, so functions are matched by full name, fields by fieldName and
	// signatures by their path-qualified text, never by types.Object
	// identity. Uses also holds the method or field each selector picks.
	used, set := map[string]bool{}, map[string]bool{}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if ok && !strings.HasSuffix(p.Fset.Position(id.Pos()).Filename, "_test.go") {
				used[fn.FullName()] = true
			}
		}
		for _, f := range p.Files {
			for _, field := range setFields(p.Info, f) {
				set[fieldName(field)] = true
			}
		}
	}
	orphan := func(name string, live bool, verb string) {
		switch {
		case live && orphanAllowlist[name] != "":
			t.Errorf("%s is allowlisted but %s by non-test code: drop it from orphanAllowlist", name, verb)
		case !live && orphanAllowlist[name] == "":
			t.Errorf("%s is %s only by tests, if at all: delete it, move it into a _test.go file, or allowlist it with a reason", name, verb)
		}
	}
	ifaces := declaredInterfaces(pkgs)
	for _, p := range pkgs {
		if !strings.HasPrefix(p.ImportPath, "repro/internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if !decl.Name.IsExported() {
						continue
					}
					fn := p.Info.Defs[decl.Name].(*types.Func)
					if !used[fn.FullName()] && satisfiesInterface(fn, ifaces) {
						continue
					}
					orphan(shortName(fn), used[fn.FullName()], "called")
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || !ts.Name.IsExported() {
							continue
						}
						st, ok := p.Info.Defs[ts.Name].Type().Underlying().(*types.Struct)
						if !ok {
							continue
						}
						for field := range st.Fields() {
							if field.Exported() {
								orphan(fieldName(field), set[fieldName(field)], "set")
							}
						}
					}
				}
			}
		}
	}
	if len(orphanAllowlist) > 1 {
		t.Errorf("orphanAllowlist has %d entries, at most 1 allowed: delete the functions and fields or move them into _test.go files", len(orphanAllowlist))
	}
}

// setFields returns the struct fields f's code sets: each element of a
// struct composite literal, the operand of an assignment, ++ or --, and the
// operand of &, when that is a field selector. A default fill or clamp is not
// a set: an assignment to a field of the enclosing function's own parameter
// or receiver, placed directly in an if whose condition reads that field.
func setFields(info *types.Info, f *ast.File) []*types.Var {
	var out []*types.Var
	fills := defaultFills(info, f)
	selected := func(e ast.Expr) {
		if fills[e] {
			return
		}
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				out = append(out, v)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			typ := info.TypeOf(n)
			if ptr, ok := typ.(*types.Pointer); ok { // an elided &T in a literal of *T
				typ = ptr.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					out = append(out, info.Uses[kv.Key.(*ast.Ident)].(*types.Var))
				} else {
					out = append(out, st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				selected(lhs)
			}
		case *ast.IncDecStmt:
			selected(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				selected(n.X)
			}
		}
		return true
	})
	return out
}

// defaultFills returns the assignment operands in f that setFields does not
// count: p.F in "if cond { p.F = … }", where p is a parameter or receiver of
// the function the if is in and cond reads p.F.
func defaultFills(info *types.Info, f *ast.File) map[ast.Expr]bool {
	fills := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		var lists []*ast.FieldList
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			lists, body = []*ast.FieldList{n.Recv, n.Type.Params}, n.Body
		case *ast.FuncLit:
			lists, body = []*ast.FieldList{n.Type.Params}, n.Body
		}
		if body == nil {
			return true
		}
		params := map[types.Object]bool{}
		for _, list := range lists {
			if list == nil {
				continue
			}
			for _, field := range list.List {
				for _, name := range field.Names {
					params[info.Defs[name]] = true
				}
			}
		}
		// paramField keys e by (p, F) when it is p.F for a parameter p.
		paramField := func(e ast.Expr) (key [2]types.Object, ok bool) {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return key, false
			}
			x, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok || !params[info.Uses[x]] {
				return key, false
			}
			v, ok := info.Uses[sel.Sel].(*types.Var)
			return [2]types.Object{info.Uses[x], v}, ok && v.IsField()
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // the outer walk visits it with its own parameters
			case *ast.IfStmt:
				read := map[[2]types.Object]bool{}
				ast.Inspect(n.Cond, func(c ast.Node) bool {
					if e, ok := c.(ast.Expr); ok {
						if key, ok := paramField(e); ok {
							read[key] = true
						}
					}
					return true
				})
				for _, stmt := range n.Body.List {
					if as, ok := stmt.(*ast.AssignStmt); ok {
						for _, lhs := range as.Lhs {
							if key, ok := paramField(lhs); ok && read[key] {
								fills[lhs] = true
							}
						}
					}
				}
			}
			return true
		})
		return true
	})
	return fills
}

// fieldName renders a field as pkg.T.Field after the package-level struct
// type that declares it, or as pkg.Field when none does (a field of an
// anonymous struct). Both type checks of a package give it the same name.
func fieldName(v *types.Var) string {
	v = v.Origin()
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for field := range st.Fields() {
					if field == v {
						return v.Pkg().Name() + "." + tn.Name() + "." + v.Name()
					}
				}
			}
		}
	}
	return v.Pkg().Name() + "." + v.Name()
}

// declaredInterfaces returns error, errors' Unwrap convention and every
// named interface with methods that pkgs or the packages they import,
// transitively, declare.
func declaredInterfaces(pkgs []*analysis.Package) []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil,
		nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", errType)), false))
	ifaces := []*types.Interface{
		errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(),
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() && iface.NumMethods() > 0 {
				ifaces = append(ifaces, iface)
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Pkg)
	}
	return ifaces
}

// satisfiesInterface reports whether fn is a method whose receiver has every
// method, by name and signature, of one of ifaces that has a method of fn's
// name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	// The pointer's method set holds methods of both receiver kinds.
	methods := map[string]string{}
	mset := types.NewMethodSet(types.NewPointer(typ))
	for i := range mset.Len() {
		m := mset.At(i).Obj()
		methods[m.Name()] = signature(m)
	}
	for _, iface := range ifaces {
		named, all := false, true
		for i := range iface.NumMethods() {
			m := iface.Method(i)
			named = named || m.Name() == fn.Name()
			all = all && methods[m.Name()] == signature(m)
		}
		if named && all {
			return true
		}
	}
	return false
}

// signature renders a method's parameter and result types with package-path
// qualifiers, so the text is the same whichever check produced the types.
func signature(m types.Object) string {
	sig := m.Type().(*types.Signature)
	text := fmt.Sprint(sig.Variadic())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		text += "|"
		for v := range tuple.Variables() {
			text += types.TypeString(v.Type(), (*types.Package).Path) + ","
		}
	}
	return text
}

// shortName renders fn as pkg.Func, (pkg.T).Method or (*pkg.T).Method.
func shortName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fmt.Sprintf("(%s).%s", types.TypeString(recv.Type(), (*types.Package).Name), fn.Name())
}

// qualifiedName renders fd as pkg.Func, (pkg.T).Method or (*pkg.T).Method.
func qualifiedName(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	recv, ptr := types.ExprString(fd.Recv.List[0].Type), ""
	if r, ok := strings.CutPrefix(recv, "*"); ok {
		recv, ptr = r, "*"
	}
	return fmt.Sprintf("(%s%s.%s).%s", ptr, pkg, recv, fd.Name.Name)
}

// walkGoSources parses every non-test .go file under the module root,
// comments included, and hands it to fn. It skips testdata, hidden
// directories and the top-level directories named in skip.
func walkGoSources(t *testing.T, fn func(path string, f *ast.File), skip ...string) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) || slices.Contains(skip, path) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
