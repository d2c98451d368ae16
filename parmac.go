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
// The package re-exports the generic engine (internal/core) and the two
// model families adapted to it — binary autoencoders (internal/binauto) and
// K-layer sigmoid nets (internal/macnet) — plus a one-call helper for the
// paper's flagship application, learning binary hash functions:
//
//	ds := parmac.SyntheticSIFT(10000, 128, 32, 1)
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

// Re-exported engine types. See internal/core for full documentation.
type (
	// Engine runs ParMAC iterations over a Problem.
	Engine = core.Engine
	// Config parameterises the engine (machines, epochs, shuffling,
	// rescue deadlines).
	Config = core.Config
	// Problem adapts a MAC algorithm to the engine.
	Problem = core.Problem
	// Submodel is one circulating unit of the W step.
	Submodel = core.Submodel
	// Shard is one machine's data portion.
	Shard = core.Shard
	// IterationResult summarises one W+Z iteration.
	IterationResult = core.IterationResult
)

// New creates a ParMAC engine for the problem, one fabric rank per machine:
// machine i is a goroutine on machine(i), e.g. a model family's Machine.
func New(prob Problem, cfg Config, machine func(shard int) Problem) *Engine {
	return core.New(prob, cfg, machine)
}

// BAOptions configures TrainBinaryAutoencoder.
type BAOptions struct {
	Bits       int // L
	Machines   int // P
	Epochs     int // e per W step
	Iterations int // MAC iterations (μ stages)

	Mu0      float64 // first penalty value (default 1e-4)
	MuFactor float64 // μ growth factor a (default 2)
	Shuffle  bool
	Seed     int64

	// Cores is the number of goroutines each machine uses for its Z step:
	// 0 or 1 serial, < 0 every core (GOMAXPROCS). The codes are independent
	// per point, so the trained model is bit-identical for any value.
	Cores int

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
		L: opt.Bits, Mu0: opt.Mu0, MuFactor: opt.MuFactor, ZMethod: zm, Seed: opt.Seed,
		Parallel: opt.Cores,
	})
	eng := New(prob, Config{
		P: opt.Machines, Epochs: opt.Epochs, Shuffle: opt.Shuffle, Seed: opt.Seed,
	}, prob.Machine)
	defer eng.Shutdown()
	hist := eng.Run(opt.Iterations)
	model := prob.AssembleModel()
	return &BAResult{
		Model:   model,
		Codes:   model.Encode(ds, opt.Cores),
		History: hist,
	}
}

// SyntheticSIFT generates a byte-quantised SIFT-like benchmark dataset
// (clustered descriptors), the stand-in for the paper's image sets.
func SyntheticSIFT(n, d, clusters int, seed int64) *dataset.Dataset {
	return dataset.SIFTLike(n, d, clusters, seed)
}

// SyntheticGIST generates a float GIST-like dataset (the CIFAR analogue).
func SyntheticGIST(n, d, clusters int, seed int64) *dataset.Dataset {
	return dataset.GISTLike(n, d, clusters, seed)
}

// SyntheticBenchmark generates a base set plus queries drawn from the same
// mixture (the correct retrieval-benchmark protocol), byte-quantised on a
// shared grid.
func SyntheticBenchmark(n, q, d, clusters int, seed int64) (base, queries *dataset.Dataset) {
	return dataset.WithQueries(n, q, d, clusters, seed, true)
}

// ManifoldBenchmark generates a base set plus queries on a smooth nonlinear
// manifold — the data regime (like real GIST/SIFT descriptors) where learned
// binary autoencoders compete with and beat the PCA-based hashes.
func ManifoldBenchmark(n, q, d int, seed int64) (base, queries *dataset.Dataset) {
	return dataset.ManifoldWithQueries(n, q, d, 3, seed)
}
