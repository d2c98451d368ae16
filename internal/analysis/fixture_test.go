package analysis

import (
	"go/ast"
	"regexp"
	"testing"
)

// The fixtures under testdata/src mirror x/tools' analysistest convention: a
// trailing comment of the form
//
//	// want `regex`
//
// marks a line that must produce a diagnostic matching the regex; every other
// line must stay silent. The testdata directory is invisible to go build
// wildcards, so fixtures deliberately exhibiting violations never reach the
// real parmac-vet gate.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// testFixture runs one analyzer over fixture package patterns and checks the
// produced diagnostics against the // want expectations, both directions.
func testFixture(t *testing.T, a *Analyzer, patterns ...string) {
	t.Helper()
	pkgs, err := Load(".", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	type loc struct {
		file string
		line int
	}
	want := map[loc]*regexp.Regexp{}
	for _, pkg := range pkgs {
		files := append(append(append([]*ast.File{}, pkg.Files...),
			pkg.TestFiles...), pkg.XTestFiles...)
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regex %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					want[loc{pos.Filename, pos.Line}] = re
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture %v declares no // want expectations", patterns)
	}

	matched := map[loc]bool{}
	for _, d := range diags {
		l := loc{d.Position.Filename, d.Position.Line}
		re, ok := want[l]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("%s: message %q does not match want /%s/", d.Position, d.Message, re)
			continue
		}
		matched[l] = true
	}
	for l, re := range want {
		if !matched[l] {
			t.Errorf("%s:%d: expected diagnostic /%s/, got none", l.file, l.line, re)
		}
	}
}

func TestClampWorkersFixture(t *testing.T) {
	testFixture(t, ClampWorkersAnalyzer, "./testdata/src/clampworkers")
}

func TestFloatOrderFixture(t *testing.T) {
	testFixture(t, FloatOrderAnalyzer, "./testdata/src/floatorder")
}

func TestAtomicFieldFixture(t *testing.T) {
	testFixture(t, AtomicFieldAnalyzer, "./testdata/src/atomicfield")
}

func TestBoundedMakeFixture(t *testing.T) {
	testFixture(t, BoundedMakeAnalyzer, "./testdata/src/boundedmake")
}

func TestDetRandFixture(t *testing.T) {
	testFixture(t, DetRandAnalyzer, "./testdata/src/detrand/...")
}

func TestWireCodecFixture(t *testing.T) {
	testFixture(t, WireCodecAnalyzer, "./testdata/src/wirecodec")
}
