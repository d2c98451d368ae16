// Quickstart: train a binary autoencoder with ParMAC in one call and use it
// for approximate nearest-neighbour retrieval.
package main

import (
	"fmt"

	parmac "repro"
	"repro/internal/retrieval"
)

func main() {
	// A synthetic SIFT-like benchmark: 4000 clustered 32-d descriptors
	// stored one byte per feature, exactly like the paper's SIFT sets.
	ds, queries := parmac.SyntheticBenchmark(4000, 100, 32, 12, 1)

	// Train a 16-bit binary autoencoder on 4 (simulated) machines: tPCA
	// code initialisation, L per-bit SVMs + decoder groups circulating in a
	// ring, 1 SGD epoch per W step, 10 μ stages.
	res := parmac.TrainBinaryAutoencoder(ds, parmac.BAOptions{
		Bits: 16, Machines: 4, Epochs: 1, Iterations: 10, Shuffle: true, Seed: 1,
		ApproxZ: true, // alternating Z step: ≈2 µs per point, vs ≈70 µs for exact L=16 enumeration
	})
	fmt.Printf("trained %d-bit autoencoder over %d iterations\n",
		res.Model.L(), len(res.History))
	last := res.History[len(res.History)-1]
	fmt.Printf("last iteration: %d codes changed, %d model bytes moved\n",
		last.ZChanged, last.ModelBytes)

	// Index the dataset: 16-bit codes, 8 bytes per point → N×8 bytes total.
	base := res.Model.Encode(ds, 1)
	fmt.Printf("index size: %d bytes packed (raw floats would be %d)\n",
		base.MemoryBytes(), ds.N*ds.D*8)

	// Retrieve with Hamming distance and score against exact Euclidean
	// ground truth.
	truth := retrieval.GroundTruth(ds, queries, 50, 1)
	qc := res.Model.Encode(queries, 1)
	retr := make([][]int, queries.N)
	for q := 0; q < queries.N; q++ {
		retr[q] = retrieval.TopKHamming(base, qc.Code(q), 50)
	}
	fmt.Printf("retrieval precision (K=k=50): %.3f\n", retrieval.Precision(truth, retr))
}
