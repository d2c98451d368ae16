package binauto

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/pca"
	"repro/internal/retrieval"
	"repro/internal/sgd"
)

// MACConfig parameterises the serial MAC algorithm of Fig. 1.
type MACConfig struct {
	L int // bits

	// μ schedule: μ_i = Mu0·MuFactorⁱ for Iters iterations (§8.1 uses
	// multiplicative schedules, e.g. μ0=1e-6, a=2 for SIFT).
	Mu0      float64
	MuFactor float64
	Iters    int

	// W step: per-bit SVM regularisation and the number of SGD passes used
	// to "fit" each SVM in the serial W step. The decoder is fit exactly by
	// least squares (Fig. 1) with DecLambda ridge.
	SVMLambda float64
	SVMEpochs int
	DecLambda float64

	ZMethod ZMethod
	Seed    int64
	Shuffle bool // shuffle sample order in the SVM SGD passes

	// Parallel is the number of goroutines each step of RunMAC uses: the
	// fused W step fans bit groups and the decoder normal equations over it,
	// the Z step chunks the shard scan, and validation scoring pools its
	// encode and retrieval scans. 0 or 1 runs serially, < 0 uses every core.
	// With Shuffle false the trained model is bit-identical for any value.
	Parallel int

	// Optional validation-based early stopping (§3.1: "we stop iterating for
	// a μ value ... when the precision of the hash function in a validation
	// set decreases").
	Validation *Validation

	// Optional initial codes; when nil they come from truncated PCA on a
	// subsample (§8.1).
	InitZ *retrieval.Codes
}

func (c *MACConfig) fillDefaults() {
	if c.Mu0 <= 0 {
		c.Mu0 = 1e-4
	}
	if c.MuFactor <= 1 {
		c.MuFactor = 2
	}
	if c.Iters <= 0 {
		c.Iters = 10
	}
	if c.SVMEpochs <= 0 {
		c.SVMEpochs = 3
	}
	if c.SVMLambda <= 0 {
		c.SVMLambda = 1e-5
	}
}

// IterStats records the per-iteration learning-curve quantities plotted in
// Figs. 7–9 and 11.
type IterStats struct {
	Iter      int
	Mu        float64
	EQ        float64
	EBA       float64
	Precision float64 // NaN when no validation set is configured
	ZChanged  int     // codes changed in the Z step
	Stopped   bool    // stopping criterion fired at this iteration
}

// Validation bundles what is needed to measure retrieval precision (or
// recall) during training.
type Validation struct {
	Base    sgd.Points // points to index (their codes form the database)
	Queries sgd.Points
	Truth   [][]int // exact Euclidean neighbours per query
	K       int     // retrieved set size k

	// UseRecall switches the score to recall@K with Truth[q][0] as the true
	// nearest neighbour (the SIFT-1B protocol, §8.4).
	UseRecall bool
}

// Score computes the configured retrieval quality of the model's hash, with
// the base/query encoding and the Hamming scans on workers goroutines
// (core.Cores semantics). The score is identical for any worker count.
func (v *Validation) Score(m *Model, workers int) float64 {
	base := m.Encode(v.Base, workers)
	qc := m.Encode(v.Queries, workers)
	if v.UseRecall {
		trueNN := make([]int, len(v.Truth))
		for q := range v.Truth {
			trueNN[q] = v.Truth[q][0]
		}
		return retrieval.RecallAtR(base, qc, trueNN, []int{v.K}, workers)[0]
	}
	return retrieval.Precision(v.Truth, retrieval.AllTopKHamming(base, qc, v.K, workers))
}

// RunMAC trains a binary autoencoder with the serial MAC algorithm of Fig. 1
// and returns the model, the final codes and the learning curve. Stopping
// follows the paper: stop early when the Z step changes nothing and
// Z = h(X) (the constraints are satisfied, so the finite-μ fixed point has
// been reached), or when validation precision drops below its best value.
//
// The W step runs fused (TrainWStep) and the Z step reports the Z = h(X)
// check it computes anyway (ZKernel.RunStats), so one iteration makes
// SVMEpochs+calibration passes over the data instead of per-bit ones and
// never re-encodes the dataset just for the stopping test. cfg.Parallel
// sizes the pool of every step, validation scoring included.
func RunMAC(pts sgd.Points, cfg MACConfig) (*Model, *retrieval.Codes, []IterStats) {
	cfg.fillDefaults()
	d := len(pts.Point(0, nil))
	rng := rand.New(rand.NewSource(cfg.Seed))
	workers := core.Cores(cfg.Parallel)

	var z *retrieval.Codes
	if cfg.InitZ != nil {
		z = cfg.InitZ.Clone()
	} else {
		z = initCodesTPCA(pts, cfg.L, rng.Int63())
	}
	m := NewModel(d, cfg.L, cfg.SVMLambda)

	var stats []IterStats
	bestScore := -1.0
	mu := cfg.Mu0
	for it := 0; it < cfg.Iters; it++ {
		if err := TrainWStep(m, pts, z, &cfg, rng, workers); err != nil {
			panic("binauto: decoder fit failed: " + err.Error())
		}
		zres := NewZKernel(m, mu, cfg.ZMethod).RunStats(pts, z, workers)

		st := IterStats{Iter: it, Mu: mu, ZChanged: zres.Changed}
		st.EQ = m.EQ(pts, z, mu)
		st.EBA = m.EBA(pts)
		if cfg.Validation != nil {
			st.Precision = cfg.Validation.Score(m, workers)
		}
		// Stop when Z is a fixed point and satisfies the constraints (the
		// Z step just verified z == h(X) point by point, so no re-encode).
		if zres.Changed == 0 && zres.HashEqual {
			st.Stopped = true
			stats = append(stats, st)
			break
		}
		// Validation early stopping.
		if cfg.Validation != nil {
			if st.Precision < bestScore {
				st.Stopped = true
				stats = append(stats, st)
				break
			}
			if st.Precision > bestScore {
				bestScore = st.Precision
			}
		}
		stats = append(stats, st)
		mu *= cfg.MuFactor
	}
	return m, z, stats
}

// initCodesTPCA builds the paper's initial codes: truncated PCA fit on a
// subsample and binarised (§8.1).
func initCodesTPCA(pts sgd.Points, l int, seed int64) *retrieval.Codes {
	n := pts.NumPoints()
	sample := pts
	const maxSample = 2000
	if n > maxSample {
		idx := rand.New(rand.NewSource(seed)).Perm(n)[:maxSample]
		sample = subsetPoints{pts, idx}
	}
	h := pca.FitTPCA(sample, l)
	return h.Encode(pts)
}

type subsetPoints struct {
	p   sgd.Points
	idx []int
}

func (s subsetPoints) NumPoints() int                       { return len(s.idx) }
func (s subsetPoints) Point(i int, dst []float64) []float64 { return s.p.Point(s.idx[i], dst) }
