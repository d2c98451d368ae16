// Retrieval: the paper's flagship application end to end — learn binary hash
// functions with a distributed binary autoencoder and compare retrieval
// quality against the truncated-PCA and ITQ baselines.
package main

import (
	"fmt"

	parmac "repro"
	"repro/internal/pca"
	"repro/internal/retrieval"
)

func main() {
	const (
		nBase  = 5000
		nQuery = 100
		dim    = 32
		bits   = 16
		kTrue  = 50 // true Euclidean neighbours per query
		kRet   = 50 // Hamming neighbours retrieved
	)
	// Manifold-structured features: like real image descriptors, the data
	// concentrate near a smooth low-dimensional manifold, the regime where
	// learned hashes are competitive with PCA-based ones.
	base, queries := parmac.ManifoldBenchmark(nBase, nQuery, dim, 7)
	truth := retrieval.GroundTruth(base, queries, kTrue, 1)

	precisionOf := func(baseCodes, queryCodes *retrieval.Codes) float64 {
		retr := make([][]int, queries.N)
		for q := 0; q < queries.N; q++ {
			retr[q] = retrieval.TopKHamming(baseCodes, queryCodes.Code(q), kRet)
		}
		return retrieval.Precision(truth, retr)
	}
	// Baseline 1: truncated PCA (also the BA's initialisation).
	tp := pca.FitTPCA(base, bits)
	fmt.Printf("tPCA precision:      %.3f\n", precisionOf(tp.Encode(base), tp.Encode(queries)))

	// Baseline 2: iterative quantisation (ITQ).
	itq := pca.FitITQ(base, bits, 30, 7)
	fmt.Printf("ITQ precision:       %.3f\n", precisionOf(itq.Encode(base), itq.Encode(queries)))

	// The binary autoencoder trained with ParMAC on 8 machines.
	res := parmac.TrainBinaryAutoencoder(base, parmac.BAOptions{
		Bits: bits, Machines: 8, Epochs: 2, Iterations: 12, Shuffle: true, Seed: 7,
		ApproxZ: true,
	})
	fmt.Printf("ParMAC BA precision: %.3f\n", precisionOf(res.Model.Encode(base, 1), res.Model.Encode(queries, 1)))

	var bytes int64
	for _, h := range res.History {
		bytes += h.ModelBytes
	}
	fmt.Printf("\ntotal model traffic over %d iterations: %d bytes "+
		"(no data or coordinates ever moved)\n", len(res.History), bytes)
	fmt.Printf("search memory: %d bytes for %d points (%d-bit codes)\n",
		res.Model.Encode(base, 1).MemoryBytes(), base.N, bits)
}
