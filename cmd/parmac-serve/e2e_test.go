package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/retrieval"
)

// TestFlagEdgeCases drives the binary: every out-of-range flag and a stray
// argument are refused with an error message before the index is loaded,
// and -shadow-rate 0 mirrors no query to an installed shadow.
func TestFlagEdgeCases(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "parmac-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// The index does not exist, so a flag check that runs after the load
	// would report the missing file instead.
	missing := filepath.Join(dir, "missing.pmac")
	for _, bad := range [][]string{
		{"-shards", "0"}, {"-shards", "-3"}, {"-max-k", "0"}, {"-max-k", "-5"},
		{"-shadow-rate", "-1"}, {"-shadow-rate", "2"}, {"-shadow-rate", "NaN"},
		{"-mih-blocks", "-2"}, {"-max-index-bytes", "-1"}, {"extra", "-shards", "0"},
	} {
		t.Run(strings.Join(bad, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0", "-index", missing}, bad...)...)
			out, _ := cmd.CombinedOutput()
			want := "error: " + bad[0]
			if !strings.HasPrefix(bad[0], "-") {
				want = fmt.Sprintf("error: unexpected argument %q", bad[0])
			}
			if code := cmd.ProcessState.ExitCode(); code != 1 || !strings.HasPrefix(string(out), want) {
				t.Fatalf("exit %d, want 1 and only an error naming %s:\n%s", code, bad[0], out)
			}
		})
	}

	t.Run("shadow-rate 0", func(t *testing.T) {
		index := filepath.Join(dir, "index.pmac")
		writeIndex(t, index)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()
		cmd := exec.Command(bin, "-addr", addr, "-index", index, "-shadow-rate", "0")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			cmd.Process.Kill()
			cmd.Wait()
		}()
		base := "http://" + addr
		post := func(path, body string) {
			t.Helper()
			resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s: status %d", path, resp.StatusCode)
			}
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			if resp, err := http.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("server never came up")
			}
		}
		post("/v1/shadow", fmt.Sprintf(`{"version":"cand","index":%q}`, index))
		for i := range 50 {
			post("/v1/search", fmt.Sprintf(`{"code":["%#x"],"k":5}`, i))
		}
		// Mirrored searches finish in the background, and there is no event
		// for "nothing was mirrored": give any that was time to be counted.
		time.Sleep(200 * time.Millisecond)
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			Queries       int64  `json:"queries"`
			ShadowVersion string `json:"shadow_version"`
			ShadowQueries int64  `json:"shadow_queries"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		if stats.Queries != 50 || stats.ShadowVersion != "cand" || stats.ShadowQueries != 0 {
			t.Fatalf("stats %+v, want 50 queries, shadow cand and no mirrored query", stats)
		}
	})
}

// writeIndex saves 64 distinct 8-bit codes as an index file.
func writeIndex(t *testing.T, path string) {
	t.Helper()
	codes := retrieval.NewCodes(64, 8)
	for i := range codes.N {
		codes.SetWord64(i, uint64(i))
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := codes.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
