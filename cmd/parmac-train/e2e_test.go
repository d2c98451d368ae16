package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSIGKILLWorkerMidTraining is the end-to-end fault drill: real OS
// processes over real sockets, one worker killed with SIGKILL (no signal
// handler runs, no bye frame is sent), and the coordinator must still finish
// training on the survivor and report the death in its run output.
func TestSIGKILLWorkerMidTraining(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("relies on unix process kill semantics")
	}
	if testing.Short() {
		t.Skip("builds and drives real processes")
	}

	bin := buildBinary(t)

	// Flags every process must agree on: they derive the dataset and shards
	// deterministically from these.
	const p = 2
	shared := []string{
		"-p", strconv.Itoa(p), "-n", "60", "-d", "6", "-clusters", "3",
		"-bits", "4", "-seed", "7", "-e", "1", "-cores", "1", "-queries", "4",
	}

	// An iteration of this tiny problem takes under a millisecond, so the run
	// needs hundreds of them to be still training when the kill lands, even
	// on a loaded machine.
	coordArgs := append([]string{
		"-coordinator", "-listen", "127.0.0.1:0",
		"-iters", "500", "-rescue-timeout", "5s",
	}, shared...)
	coord := exec.Command(bin, coordArgs...)
	var coordErr bytes.Buffer
	coord.Stderr = &coordErr
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	// Stream coordinator stdout: the rendezvous address arrives first, then
	// one row per iteration.
	lines := make(chan string, 64)
	var coordOut bytes.Buffer
	var outMu sync.Mutex
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			outMu.Lock()
			coordOut.WriteString(sc.Text() + "\n")
			outMu.Unlock()
			lines <- sc.Text()
		}
		close(lines)
	}()
	waitLine := func(what string, match func(string) bool) string {
		deadline := time.After(2 * time.Minute)
		for {
			select {
			case ln, ok := <-lines:
				if !ok {
					t.Fatalf("coordinator exited before %s\nstdout:\n%s\nstderr:\n%s",
						what, snapshot(&outMu, &coordOut), coordErr.String())
				}
				if match(ln) {
					return ln
				}
			case <-deadline:
				t.Fatalf("timed out waiting for %s\nstdout:\n%s\nstderr:\n%s",
					what, snapshot(&outMu, &coordOut), coordErr.String())
			}
		}
	}

	addrLine := waitLine("rendezvous address", func(s string) bool {
		return strings.Contains(s, "rendezvous at ")
	})
	addr := strings.TrimSuffix(strings.Fields(addrLine)[3], ",")

	workers := make([]*exec.Cmd, p)
	for r := 0; r < p; r++ {
		args := append([]string{
			"-worker", "-connect", addr, "-rank", strconv.Itoa(r),
		}, shared...)
		workers[r] = exec.Command(bin, args...)
		workers[r].Stdout = io.Discard
		workers[r].Stderr = io.Discard
		if err := workers[r].Start(); err != nil {
			t.Fatal(err)
		}
		defer workers[r].Process.Kill()
	}

	// Let the cluster make real progress, then kill rank 1 dead — SIGKILL
	// gives it no chance to announce anything.
	waitLine("first iteration row", func(s string) bool {
		return len(strings.Fields(s)) > 0 && strings.Fields(s)[0] == "0"
	})
	if err := workers[1].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	// Nothing waits on lines from here on; drain them so the coordinator
	// never blocks writing its remaining rows.
	go func() {
		for range lines {
		}
	}()

	done := make(chan error, 1)
	go func() { done <- coord.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator failed after worker SIGKILL: %v\nstdout:\n%s\nstderr:\n%s",
				err, snapshot(&outMu, &coordOut), coordErr.String())
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("coordinator hung after worker SIGKILL\nstdout:\n%s\nstderr:\n%s",
			snapshot(&outMu, &coordOut), coordErr.String())
	}

	out := snapshot(&outMu, &coordOut)
	if !strings.Contains(coordErr.String(), "died (unannounced)") {
		t.Fatalf("coordinator did not report the unannounced death\nstdout:\n%s\nstderr:\n%s",
			out, coordErr.String())
	}
	if !strings.Contains(out, "retrieval precision") {
		t.Fatalf("training did not run to completion on the survivor\nstdout:\n%s", out)
	}

	// The survivor worker drains the shutdown and exits on its own.
	survivor := make(chan error, 1)
	go func() { survivor <- workers[0].Wait() }()
	select {
	case err := <-survivor:
		if err != nil {
			t.Fatalf("surviving worker exited with error: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("surviving worker did not exit after shutdown")
	}
}

// TestFlagEdgeCases drives the binary at the edges of its flags: a run with
// no iterations still evaluates the initial model, and out-of-range flags
// are refused with an error message rather than a stack trace.
func TestFlagEdgeCases(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real processes")
	}
	bin := buildBinary(t)
	data := []string{"-n", "60", "-d", "6", "-clusters", "3", "-bits", "4", "-queries", "4", "-seed", "7"}
	run := func(t *testing.T, args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, append(data, args...)...)
		out, err := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatal(err)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}

	t.Run("tcp with zero iterations", func(t *testing.T) {
		out, code := run(t, "-transport", "tcp", "-iters", "0", "-p", "2")
		if code != 0 || !strings.Contains(out, "retrieval precision") {
			t.Fatalf("exit %d, want 0 and a precision line:\n%s", code, out)
		}
	})
	for _, bad := range [][]string{
		{"-p", "0"}, {"-bits", "0"}, {"-iters", "-1"}, {"extra", "-p", "0"},
		{"-n", "0"}, {"-d", "0"}, {"-queries", "-1"}, {"-queries", "0"}, {"-bits", "7"},
	} {
		t.Run(strings.Join(bad, " "), func(t *testing.T) {
			out, code := run(t, bad...)
			want := "error: " + bad[0]
			if !strings.HasPrefix(bad[0], "-") {
				want = fmt.Sprintf("error: unexpected argument %q", bad[0])
			}
			if code != 1 || !strings.HasPrefix(out, want) {
				t.Fatalf("exit %d, want 1 and an error naming %s:\n%s", code, bad[0], out)
			}
		})
	}
}

// TestTransportsPrintOneCurve: without ring shuffling, one seed trains the
// same model on both transports, and the learning curve is the machines'
// own Z-step sums added in rank order, so the inproc and tcp runs must print
// byte-identical E_Q and E_BA columns (and the same precision line). Each
// run must also shut down cleanly: exit within its deadline and write
// nothing to stderr, so no worker was left attached and none exited badly.
func TestTransportsPrintOneCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real processes")
	}
	bin := buildBinary(t)
	args := []string{"-n", "1200", "-d", "16", "-bits", "8", "-p", "3", "-iters", "4", "-shuffle=false", "-seed", "1"}
	curve := func(transport string) (rows []string, precision string) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, bin, append(args, "-transport", transport)...)
		// Spawned workers share the coordinator's stderr; once it is killed,
		// stop waiting for them to close it.
		cmd.WaitDelay = 5 * time.Second
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if ctx.Err() != nil {
			t.Fatalf("-transport %s: still running after 60s\n%s%s", transport, out, stderr.String())
		}
		if err != nil || stderr.Len() > 0 {
			t.Fatalf("-transport %s: error %v, want none and an empty stderr\nstdout:\n%s\nstderr:\n%s", transport, err, out, stderr.String())
		}
		header := false
		for _, ln := range strings.Split(string(out), "\n") {
			f := strings.Fields(ln)
			switch {
			case len(f) > 0 && f[0] == "iter":
				header = true
			case strings.HasPrefix(ln, "retrieval precision"):
				precision = ln
			case header && len(f) == 6:
				rows = append(rows, strings.Join(f[:3], " "))
			}
		}
		if len(rows) != 4 || precision == "" {
			t.Fatalf("-transport %s: want 4 curve rows and a precision line:\n%s", transport, out)
		}
		return rows, precision
	}
	inRows, inPrec := curve("inproc")
	tcpRows, tcpPrec := curve("tcp")
	for i := range inRows {
		if inRows[i] != tcpRows[i] {
			t.Errorf("iter %d: inproc prints %q, tcp %q", i, inRows[i], tcpRows[i])
		}
	}
	if inPrec != tcpPrec {
		t.Errorf("inproc %q, tcp %q", inPrec, tcpPrec)
	}
}

// buildBinary compiles parmac-train into a temporary directory.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "parmac-train")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func snapshot(mu *sync.Mutex, buf *bytes.Buffer) string {
	mu.Lock()
	defer mu.Unlock()
	return buf.String()
}
