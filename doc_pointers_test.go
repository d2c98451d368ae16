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
// non-test code names, each with the reason it stays. TestNoOrphanedFuncs
// fails if it grows past one entry.
var orphanAllowlist = map[string]string{
	"cluster.WithInboxCapacity": "the in-process fabric's inbox bound, set by the backpressure conformance scenario",
}

// TestNoOrphanedFuncs fails on an exported top-level function (not method)
// declared in non-test code under internal/ that no non-test code in the
// module names, bench/ included: a function only its own tests call is dead
// code or a second way to do one thing. Names are matched in the AST as
// pkg.Name, where pkg is an imported package's name (the last element of its
// path) or, for a bare identifier, the file's own package; a same-named
// local or field of that package also counts as a use.
func TestNoOrphanedFuncs(t *testing.T) {
	used := map[string]bool{}
	var exported []string
	walkGoSources(t, func(path string, f *ast.File) {
		pkg := f.Name.Name
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				imports[imp.Name.Name] = name
			} else {
				imports[name] = name
			}
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if fd.Recv == nil && fd.Name.IsExported() && strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				exported = append(exported, qualifiedName(pkg, fd))
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				} else {
					ast.Inspect(n.X, visit) // a field or method name is not a function use
				}
				return false
			case *ast.Ident:
				if !declared[n] {
					used[pkg+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	})
	for _, name := range exported {
		if !used[name] && orphanAllowlist[name] == "" {
			t.Errorf("%s is called only by tests, if at all: delete it, move it into a _test.go file, or allowlist it with a reason", name)
		}
	}
	for name := range orphanAllowlist {
		if used[name] {
			t.Errorf("%s is allowlisted but has a non-test caller: drop it from orphanAllowlist", name)
		}
	}
	if len(orphanAllowlist) > 1 {
		t.Errorf("orphanAllowlist has %d entries, at most 1 allowed: delete the functions or move them into _test.go files", len(orphanAllowlist))
	}
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
