// Package analysis is parmac-vet: a suite of project-specific static
// analyzers that mechanically enforce the invariants the parallel
// training/serving stack rests on — worker counts clamped through
// core.ClampWorkers/core.Cores, worker-count-invariant float reductions,
// shared fields as typed atomics, decode-sized allocations bounded by a
// budget, injected seeded randomness in deterministic kernels, and
// golden-tested wire codecs.
//
// The framework mirrors the golang.org/x/tools/go/analysis API (Analyzer,
// Pass, Diagnostic) but is self-hosted on the standard library only: packages
// are loaded via `go list -export` and type-checked with go/types, so the
// checker needs nothing outside the Go toolchain. Swapping an analyzer onto
// the upstream multichecker is a mechanical port of its Run function.
//
// See README.md in this directory for the catalogue of invariants, which PR
// introduced each one, and how to suppress a false positive.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant check, mirroring the upstream
// go/analysis.Analyzer shape.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //parmac:vet ignore=<name> suppression comments.
	Name string
	// Doc is a one-paragraph description: the invariant, and why it exists.
	Doc string
	// Run reports this analyzer's diagnostics for one package via
	// Pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one (analyzer, package) unit of work, mirroring the upstream
// go/analysis.Pass shape.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's compiled (non-test) files.
	Files []*ast.File
	// TestFiles are the package's in-package _test.go files, type-checked
	// together with Files — invariants hold in test helpers too.
	TestFiles []*ast.File
	// XTestFiles are the external (package foo_test) files, parsed but NOT
	// type-checked; analyzers may only inspect them syntactically.
	XTestFiles []*ast.File
	// Pkg and Info describe Files+TestFiles.
	Pkg  *types.Package
	Info *types.Info
	// Src returns the raw source of any parsed file (including XTestFiles).
	Src func(*ast.File) []byte

	report func(Diagnostic)
}

// AllTyped returns every type-checked file (Files then TestFiles).
func (p *Pass) AllTyped() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles))
	out = append(out, p.Files...)
	return append(out, p.TestFiles...)
}

// Reportf records a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by the runner
	Position token.Position
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}

// All returns the full parmac-vet suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		ClampWorkersAnalyzer,
		FloatOrderAnalyzer,
		AtomicFieldAnalyzer,
		BoundedMakeAnalyzer,
		DetRandAnalyzer,
		WireCodecAnalyzer,
	}
}

// ByName resolves a comma-separated analyzer selection against All.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
