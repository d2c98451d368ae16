package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagEdgeCases drives the binary: the default run prints Fig. 4's model
// constants and optimum, -sim adds the simulated column, and every
// out-of-range flag is refused with an error message before any output
// rather than with a stack trace or a NaN table.
func TestFlagEdgeCases(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the binary")
	}
	bin := filepath.Join(t.TempDir(), "parmac-speedup")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(t *testing.T, args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatal(err)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}

	t.Run("default", func(t *testing.T) {
		out, code := run(t)
		if code != 0 || !strings.Contains(out, "rho1=0.002500 rho2=0.000500 rho=0.003000") ||
			!strings.Contains(out, "S*=556.0 at P*=1131") || strings.Contains(out, "S simulated") {
			t.Fatalf("exit %d, want 0 with Fig. 4's constants and optimum:\n%s", code, out)
		}
	})
	t.Run("sim", func(t *testing.T) {
		out, code := run(t, "-sim", "-n", "100000", "-m", "32", "-pmax", "64", "-steps", "4")
		if code != 0 || !strings.Contains(out, "S simulated") {
			t.Fatalf("exit %d, want 0 and a simulated column:\n%s", code, out)
		}
	})
	for _, bad := range [][]string{
		{"-n", "0", "-sim"}, {"-m", "0", "-sim"}, {"-e", "0", "-sim"},
		{"-n", "0"}, {"-m", "0"}, {"-e", "-1"}, {"-bits", "-1"},
		{"-twc", "0"}, {"-twr", "-1"}, {"-tzr", "-1"}, {"-pmax", "1"}, {"-steps", "1"},
		{"extra", "-e", "0"},
	} {
		t.Run(strings.Join(bad, " "), func(t *testing.T) {
			out, code := run(t, bad...)
			want := "error: " + bad[0]
			if !strings.HasPrefix(bad[0], "-") {
				want = fmt.Sprintf("error: unexpected argument %q", bad[0])
			}
			if code != 1 || !strings.HasPrefix(out, want) ||
				strings.Contains(out, "panic") || strings.Contains(out, "goroutine") {
				t.Fatalf("exit %d, want 1 and only an error naming %s:\n%s", code, bad[0], out)
			}
		})
	}
}
