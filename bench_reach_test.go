package parmac

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchModuleReachable makes the nested bench module part of tier-1: a
// root-module change that breaks the benchmark's build, its smoke run or its
// BENCHMARK.json contract fails `go test ./...` here, not at recording time.
func TestBenchModuleReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the bench module's smoke workloads (about 10 s)")
	}
	for _, args := range [][]string{
		{"vet", "./..."},
		{"test", "-run", "TestQuickSmoke|TestTracedEndpointIsTransparent|TestBenchmarkJSONMatchesTheProgram", "./..."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "bench"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("cd bench && go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
