package binauto

import (
	"math/rand"

	"repro/internal/pca"
	"repro/internal/retrieval"
	"repro/internal/sgd"
)

// This file holds what MAC needs around the two steps of Fig. 1, which live
// in parmac.go (the W step, trained by the circulating submodels) and
// zstep.go (the Z step): the truncated-PCA code initialisation of §8.1 and
// the retrieval-precision score the learning curves of Figs. 7–9 report.

// Validation bundles what is needed to measure retrieval precision during
// training.
type Validation struct {
	Base    sgd.Points // points to index (their codes form the database)
	Queries sgd.Points
	Truth   [][]int // exact Euclidean neighbours per query
	K       int     // retrieved set size k
}

// Score computes the precision@K of the model's hash, with the base/query
// encoding and the Hamming scans on workers goroutines (core.Cores
// semantics). The score is identical for any worker count.
func (v *Validation) Score(m *Model, workers int) float64 {
	base := m.Encode(v.Base, workers)
	qc := m.Encode(v.Queries, workers)
	return retrieval.Precision(v.Truth, retrieval.AllTopKHamming(base, qc, v.K, workers))
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
