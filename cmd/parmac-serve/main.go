// parmac-serve is the online retrieval service over a trained binary
// autoencoder: it keeps a packed-code index in RAM and answers top-k Hamming
// queries over a JSON HTTP API. Each request scans on its own goroutine,
// fanning out over the index's shards, so concurrent requests scan on every
// core. The (model, index) pair hot-swaps atomically via an admin
// endpoint, and a candidate pair can run in shadow mode against a sample of
// live traffic before being promoted.
//
// Usage:
//
//	parmac-train -n 50000 -d 64 -bits 16 -iters 8 -out model.json \
//	             -save-codes index.pmac       # train and export an index
//	parmac-serve -index index.pmac -model model.json -addr :8080
//
//	# query: encode-and-search a raw feature vector
//	curl -s localhost:8080/v1/search -d '{"vector":[0.1,0.2,…],"k":10}'
//	# query: search a pre-encoded code (hex words)
//	curl -s localhost:8080/v1/search -d '{"code":["0x3f2a"],"k":10}'
//	# hot-swap, shadow, promote
//	curl -s localhost:8080/v1/swap    -d '{"version":"v2","index":"new.pmac","model":"new.json"}'
//	curl -s localhost:8080/v1/shadow  -d '{"version":"cand","index":"cand.pmac","model":"cand.json"}'
//	curl -s localhost:8080/v1/promote -d '{}'
//	curl -s localhost:8080/v1/stats
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		indexPath  = flag.String("index", "", "packed-code index file (retrieval.Codes.Save format, required)")
		modelPath  = flag.String("model", "", "model JSON (optional; without it only raw-code queries are served)")
		version    = flag.String("version", "v1", "label for the initial deployment")
		shards     = flag.Int("shards", runtime.GOMAXPROCS(0), "linear-index shards; one query's scan fans out over min(shards, GOMAXPROCS) cores")
		indexKind  = flag.String("index-kind", "linear", "index structure: linear (sharded scan) or mih (multi-index hashing)")
		mihBlocks  = flag.Int("mih-blocks", 0, "substring tables for -index-kind=mih (0 = auto from N and L)")
		maxK       = flag.Int("max-k", 1000, "largest k a request may ask for")
		shadowRate = flag.Float64("shadow-rate", 0.1, "fraction of queries mirrored to the shadow deployment (0 = none)")
		maxBytes   = flag.Int64("max-index-bytes", 0, "index payload budget for loads (0 = 1 GiB default)")
	)
	flag.Parse()

	checks := []struct {
		bad bool
		msg string
	}{
		{flag.NArg() > 0, fmt.Sprintf("unexpected argument %q", flag.Arg(0))},
		{*shards < 1, "-shards must be at least 1"},
		{*mihBlocks < 0, "-mih-blocks must not be negative"},
		{*maxK < 1, "-max-k must be at least 1"},
		{!(*shadowRate >= 0 && *shadowRate <= 1), "-shadow-rate must be in [0, 1]"},
		{*maxBytes < 0, "-max-index-bytes must not be negative"},
	}
	for _, c := range checks {
		if c.bad {
			fmt.Fprintln(os.Stderr, "error:", c.msg)
			os.Exit(1)
		}
	}
	if *indexPath == "" {
		fmt.Fprintln(os.Stderr, "parmac-serve: -index is required")
		flag.Usage()
		os.Exit(2)
	}
	cfg := serve.IndexConfig{Kind: *indexKind, Shards: *shards, MIHBlocks: *mihBlocks}
	dep, err := serve.LoadDeployment(*version, *indexPath, *modelPath, cfg, *maxBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parmac-serve:", err)
		os.Exit(1)
	}
	s := serve.New(dep, serve.Options{
		Shards:        *shards,
		IndexKind:     *indexKind,
		MIHBlocks:     *mihBlocks,
		MaxK:          *maxK,
		ShadowRate:    *shadowRate,
		MaxIndexBytes: *maxBytes,
	})
	defer s.Close()

	fmt.Printf("parmac-serve: %q on %s — kind=%s N=%d L=%d model=%v\n",
		*version, *addr, dep.Index.Kind(), dep.Index.N(), dep.Index.L(), dep.Model != nil)
	srv := &http.Server{Addr: *addr, Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "parmac-serve:", err)
		os.Exit(1)
	}
}
