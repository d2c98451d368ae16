// Package parmac is the public API of this reproduction of "ParMAC:
// distributed optimisation of nested functions, with application to learning
// binary autoencoders" (Carreira-Perpiñán & Alizadeh, MLSYS 2019).
//
// ParMAC distributes the method of auxiliary coordinates (MAC) for training
// nested models: P machines hold disjoint data shards and the auxiliary
// coordinates of their points; the M independent submodels of the W step
// circulate through the machines in a ring, training by SGD on each shard
// they visit; the Z step updates each machine's coordinates with no
// communication at all.
//
// The package is a one-call helper for the paper's flagship application,
// learning binary hash functions, over the binary autoencoder
// (internal/binauto) and the generic engine it runs on (internal/core):
//
//	ds, _ := parmac.SyntheticBenchmark(10000, 100, 128, 32, 1)
//	result := parmac.TrainBinaryAutoencoder(ds, parmac.BAOptions{
//	    Bits: 16, Machines: 8, Epochs: 1, Iterations: 12, Seed: 1,
//	})
//	codes := result.Codes // h(X): packed binary codes of ds, in its order
//
// See README.md ("Layout") for the system inventory and bench/README.md for
// the measured results.
package parmac

import (
	"repro/internal/binauto"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/retrieval"
)

// IterationResult summarises one W+Z iteration. See internal/core.
type IterationResult = core.IterationResult

// BAOptions configures TrainBinaryAutoencoder.
type BAOptions struct {
	Bits       int // L
	Machines   int // P
	Epochs     int // e per W step
	Iterations int // MAC iterations (μ stages)

	Shuffle bool
	Seed    int64

	// ApproxZ forces the alternating-optimisation Z step instead of exact
	// enumeration, which ZAuto uses up to L=16 as the paper does. On one core
	// enumeration costs about 1 ns per candidate code (≈6 µs per point at
	// L=12, ≈70 µs at L=16); the alternating solver costs ≈2 µs per point at
	// either L but may stop at a local optimum.
	ApproxZ bool
}

// BAResult is the outcome of TrainBinaryAutoencoder.
type BAResult struct {
	Model   *binauto.Model
	Codes   *retrieval.Codes  // h(X): row i is Model's code of point i of ds, as -save-codes writes
	History []IterationResult // one per iteration; EQ and EBA are the learning curve
}

// TrainBinaryAutoencoder trains a binary autoencoder with ParMAC on the
// dataset: codes initialised from truncated PCA, L per-bit linear SVMs plus L
// decoder groups circulating over P machines, the works. It is the
// one-call version of the paper's flagship experiment.
func TrainBinaryAutoencoder(ds *dataset.Dataset, opt BAOptions) *BAResult {
	if opt.Bits <= 0 {
		panic("parmac: BAOptions.Bits required")
	}
	if opt.Machines <= 0 {
		opt.Machines = 1
	}
	if opt.Iterations <= 0 {
		opt.Iterations = 10
	}
	zm := binauto.ZAuto
	if opt.ApproxZ {
		zm = binauto.ZAlternate
	}
	shards := dataset.ShuffledShardIndices(ds.N, opt.Machines, nil, opt.Seed)
	prob := binauto.NewParMACProblem(ds, shards, binauto.ParMACConfig{
		L: opt.Bits, ZMethod: zm, Seed: opt.Seed,
	})
	eng := core.New(prob, core.Config{
		P: opt.Machines, Epochs: opt.Epochs, Shuffle: opt.Shuffle, Seed: opt.Seed,
	}, prob.Machine)
	defer eng.Shutdown()
	hist := eng.Run(opt.Iterations)
	model := prob.AssembleModel()
	return &BAResult{
		Model:   model,
		Codes:   model.Encode(ds, 1),
		History: hist,
	}
}

// SyntheticGIST generates a float GIST-like dataset (the CIFAR analogue).
func SyntheticGIST(n, d, clusters int, seed int64) *dataset.Dataset {
	return dataset.GISTLike(n, d, clusters, seed)
}

// SyntheticBenchmark generates a base set plus queries drawn from the same
// mixture (the correct retrieval-benchmark protocol), byte-quantised on a
// shared grid.
func SyntheticBenchmark(n, q, d, clusters int, seed int64) (base, queries *dataset.Dataset) {
	return dataset.WithQueries(n, q, d, clusters, seed)
}

// ManifoldBenchmark generates a base set plus queries on a smooth nonlinear
// manifold — the data regime (like real GIST/SIFT descriptors) where learned
// binary autoencoders compete with and beat the PCA-based hashes.
func ManifoldBenchmark(n, q, d int, seed int64) (base, queries *dataset.Dataset) {
	return dataset.ManifoldWithQueries(n, q, d, 3, seed)
}
