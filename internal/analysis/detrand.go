package analysis

import (
	"go/ast"
	"go/types"
	"path"
)

// DetRandAnalyzer enforces the determinism contract the training kernels
// have carried since PR 1: a fixed seed must reproduce the same model bit
// for bit, across transports and worker counts. Global math/rand functions
// draw from a process-wide source that other goroutines advance, and
// time.Now is different on every run — both silently break the parity tests.
// Randomness must arrive as an injected, seeded *rand.Rand (see
// sgd.Order, core.WorkerSeed); rand.New/rand.NewSource are therefore fine.
//
// The check applies to the deterministic-kernel packages only, matched by
// package base name: binauto, svm, sgd.
var DetRandAnalyzer = &Analyzer{
	Name: "detrand",
	Doc: "deterministic kernel packages must not call global math/rand " +
		"functions or time.Now; inject a seeded *rand.Rand instead",
	Run: runDetRand,
}

// detRandPackages are the package base names with a bit-reproducibility
// contract.
var detRandPackages = map[string]bool{
	"binauto": true, "svm": true, "sgd": true,
}

// globalRandFuncs are the math/rand package-level functions that consume the
// shared global source. Constructors (New, NewSource) and method calls on an
// injected *rand.Rand are allowed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 additions, should it ever be imported here.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"UintN": true, "Uint": true, "Uint32N": true, "Uint64N": true, "N": true,
}

func runDetRand(pass *Pass) error {
	if !detRandPackages[path.Base(pass.Pkg.Path())] {
		return nil
	}
	for _, file := range pass.AllTyped() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pass.Info, call)
			if f == nil || f.Pkg() == nil {
				return true
			}
			// Methods on an injected *rand.Rand are the sanctioned pattern.
			if f.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch f.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[f.Name()] {
					pass.Reportf(call.Pos(),
						"global rand.%s in deterministic kernel package %s: inject a seeded *rand.Rand instead",
						f.Name(), pass.Pkg.Name())
				}
			case "time":
				if f.Name() == "Now" {
					pass.Reportf(call.Pos(),
						"time.Now in deterministic kernel package %s breaks bit-reproducibility; thread time in from the caller",
						pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil
}
