package parmac

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
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
		for _, group := range f.Comments {
			check(path, group.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
