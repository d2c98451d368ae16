package analysis

import (
	"bytes"
	"go/ast"
	"go/types"
)

// WireCodecAnalyzer enforces the wire-format discipline: every locally
// declared type registered with cluster.RegisterWire crosses the cluster
// fabric, so its byte format is a compatibility contract between worker and
// coordinator processes of different builds. The repo's mechanism for
// keeping that contract is a byte-exact golden-file test (serialize_test.go
// style): the committed bytes are what the codec must produce and decode. A
// registered type no golden test references can drift silently — exactly
// the regression this analyzer makes impossible.
//
// A type counts as covered when some _test.go file of the package both
// mentions the type identifier and contains the string "golden" (the
// checkGolden helper convention).
var WireCodecAnalyzer = &Analyzer{
	Name: "wirecodec",
	Doc: "every locally declared type passed to cluster.RegisterWire must be " +
		"referenced by a golden-file test",
	Run: runWireCodec,
}

func runWireCodec(pass *Pass) error {
	// Which test files look like golden-file tests, and which identifiers
	// does each test file mention?
	type testFile struct {
		golden bool
		idents map[string]bool
	}
	var tests []testFile
	for _, f := range append(append([]*ast.File{}, pass.TestFiles...), pass.XTestFiles...) {
		tf := testFile{
			golden: bytes.Contains(bytes.ToLower(pass.Src(f)), []byte("golden")),
			idents: map[string]bool{},
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				tf.idents[id.Name] = true
			}
			return true
		})
		tests = append(tests, tf)
	}
	covered := func(name string) bool {
		for _, tf := range tests {
			if tf.golden && tf.idents[name] {
				return true
			}
		}
		return false
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 || !isPkgFunc(calleeFunc(pass.Info, call), "cluster", "RegisterWire") {
				return true
			}
			// Types from other packages are their own package's contract.
			tn := namedTypeOf(pass, call.Args[1])
			if tn == nil || tn.Obj().Pkg() != pass.Pkg {
				return true
			}
			if !covered(tn.Obj().Name()) {
				pass.Reportf(call.Pos(),
					"wire type %s is registered with cluster.RegisterWire but no golden-file test references it; pin its byte format (see binauto/serialize_test.go)",
					tn.Obj().Name())
			}
			return true
		})
	}
	return nil
}

// namedTypeOf unwraps the registered value expression (&T{}, T{}, T(nil)) to
// the named type being registered.
func namedTypeOf(pass *Pass, e ast.Expr) *types.Named {
	t := pass.Info.Types[e].Type
	for t != nil {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x
		default:
			return nil
		}
	}
	return nil
}
