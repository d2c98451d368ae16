package parmac

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"
)

// exampleClaims holds, per example, the output lines that state its claim.
// Each pattern must match the example's output; a pattern's capture group,
// if it has one, is a precision and must parse to a value in [0, 1]. The
// examples that check their own claim (faulttolerance, streaming) also exit
// 1 when it fails. Schedule-dependent lines, such as which submodels
// faulttolerance recovers, and shuffled numbers are not matched.
var exampleClaims = map[string][]string{
	"faulttolerance": {
		`(?m)^    machine 2 DIED$`,
		`(?m)^iter=7 machines=3 `,
		`(?m)^model intact after failure`,
	},
	"streaming": {
		`(?m)^final codes cover 5000 points$`,
	},
	"serving": {
		`(?m)^promoted: live is now v2$`,
		`(?m)^query 0 served by v2,`,
		`(?m)^shadow "v2" observed 50 queries`,
	},
	"retrieval": {
		`(?m)^tPCA precision: +(\S+)$`,
		`(?m)^ITQ precision: +(\S+)$`,
		`(?m)^ParMAC BA precision: +(\S+)$`,
	},
}

// TestExamples builds every example, runs each with a deadline, and checks
// that it exits 0 and prints its claim lines.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example (a few seconds)")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	built, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != len(exampleClaims) {
		t.Errorf("built %d examples, the claims table names %d", len(built), len(exampleClaims))
	}
	for _, e := range built {
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			claims, ok := exampleClaims[name]
			if !ok {
				t.Fatal("no claim lines for this example in exampleClaims")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, filepath.Join(bin, name)).CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("still running after 60s\n%s", out)
			}
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			for _, c := range claims {
				m := regexp.MustCompile(c).FindSubmatch(out)
				if m == nil {
					t.Errorf("no line matches %s\n%s", c, out)
					continue
				}
				if len(m) > 1 {
					if p, err := strconv.ParseFloat(string(m[1]), 64); err != nil || p < 0 || p > 1 {
						t.Errorf("precision %q is not in [0, 1]", m[1])
					}
				}
			}
		})
	}
}
