// Serving: the paper's retrieval pitch as an online service. Train a binary
// autoencoder, export its (model, index) pair, stand up parmac-serve's HTTP
// stack on a local port, query it, shadow a candidate model against live
// traffic, and promote the candidate — the full lifecycle a production
// rollout walks through, end to end in one process.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	parmac "repro"
	"repro/internal/serve"
)

func main() {
	const (
		nBase  = 4000
		nQuery = 50
		dim    = 32
		bits   = 16
	)
	base, queries := parmac.ManifoldBenchmark(nBase, nQuery, dim, 7)

	// Train two models: v1 goes live, v2 is the candidate for shadow rollout.
	train := func(iters int, seed int64) *parmac.BAResult {
		return parmac.TrainBinaryAutoencoder(base, parmac.BAOptions{
			Bits: bits, Machines: 4, Epochs: 1, Iterations: iters,
			Shuffle: true, Seed: seed, ApproxZ: true,
		})
	}
	fmt.Println("training v1 (live) and v2 (candidate)...")
	v1, v2 := train(6, 1), train(12, 2)

	// Export (model, index) pairs the way a training pipeline would.
	dir, err := os.MkdirTemp("", "parmac-serve")
	check(err)
	defer os.RemoveAll(dir)
	export := func(name string, res *parmac.BAResult) (indexPath, modelPath string) {
		indexPath = filepath.Join(dir, name+".pmac")
		modelPath = filepath.Join(dir, name+".json")
		f, err := os.Create(indexPath)
		check(err)
		check(res.Model.Encode(base, 1).Save(f))
		check(f.Close())
		f, err = os.Create(modelPath)
		check(err)
		check(res.Model.Save(f))
		check(f.Close())
		return
	}
	idx1, mdl1 := export("v1", v1)
	idx2, mdl2 := export("v2", v2)

	// Stand up the serving stack: MIH index (what -index-kind=mih gives the
	// parmac-serve binary), one scan per request, HTTP API. Swap Kind to
	// "linear" to compare against the brute-force sharded scan — results are
	// identical.
	cfg := serve.IndexConfig{Kind: "mih"}
	dep, err := serve.LoadDeployment("v1", idx1, mdl1, cfg, 0)
	check(err)
	srv := serve.New(dep, serve.Options{IndexKind: "mih", ShadowRate: 1})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String()
	fmt.Printf("serving kind=%s N=%d L=%d on %s\n", dep.Index.Kind(), dep.Index.N(), dep.Index.L(), url)

	post := func(path string, body any) map[string]any {
		data, err := json.Marshal(body)
		check(err)
		resp, err := http.Post(url+path, "application/json", bytes.NewReader(data))
		check(err)
		defer resp.Body.Close()
		out := map[string]any{}
		check(json.NewDecoder(resp.Body).Decode(&out))
		if resp.StatusCode != 200 {
			check(fmt.Errorf("%s: %v", path, out["error"]))
		}
		return out
	}

	// An encode-and-search query, exactly what a curl would send.
	q := queries.Point(0, nil)
	out := post("/v1/search", map[string]any{"vector": q, "k": 5})
	fmt.Printf("query 0 served by %v, top-5: %v\n", out["model"], out["neighbors"])

	// Shadow the candidate, mirror live traffic, inspect agreement.
	post("/v1/shadow", map[string]any{"version": "v2", "index": idx2, "model": mdl2})
	for i := 0; i < nQuery; i++ {
		post("/v1/search", map[string]any{"vector": queries.Point(i, nil), "k": 10})
	}
	srv.WaitShadow()
	st := srv.Stats()
	fmt.Printf("shadow %q observed %d queries, agreement with live: %.3f\n",
		st.ShadowVersion, st.ShadowQueries, st.ShadowAgreement)

	// The candidate held up — promote it atomically; in-flight requests keep
	// the deployment they started with, new ones see v2.
	out = post("/v1/promote", map[string]any{})
	fmt.Printf("promoted: live is now %v\n", out["live"])
	out = post("/v1/search", map[string]any{"vector": q, "k": 5})
	fmt.Printf("query 0 served by %v, top-5: %v\n", out["model"], out["neighbors"])

	st = srv.Stats()
	fmt.Printf("served %d queries, %d rejected\n", st.Queries, st.Errors)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
