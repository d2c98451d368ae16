// Package pca implements principal component analysis and the two
// PCA-derived binary hashing baselines the paper uses: truncated PCA (tPCA),
// which initialises the binary autoencoder's codes (§8.1) and serves as the
// retrieval baseline in Fig. 12, and iterative quantisation (ITQ, Gong et
// al. 2013), the established method the BA is reported to improve on (§3.1).
package pca

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/retrieval"
	"repro/internal/sgd"
	"repro/internal/vec"
)

// PCA holds a fitted principal subspace: the data mean and the top-L
// components as the columns of a D×L matrix.
type PCA struct {
	Mean       []float64
	Components *vec.Matrix // D×L, orthonormal columns
	EigVals    []float64   // top-L eigenvalues, descending
}

// Fit computes the top-l principal components of the points via the
// eigendecomposition of the sample covariance. The paper runs PCA "on a
// subset of the training set (small enough that it fits in one machine)";
// pass such a subset here.
func Fit(pts sgd.Points, l int) *PCA {
	n := pts.NumPoints()
	if n == 0 {
		panic("pca: empty sample")
	}
	d := len(pts.Point(0, nil))
	if l > d {
		panic("pca: more components than dimensions")
	}
	mean := make([]float64, d)
	buf := make([]float64, d)
	for i := 0; i < n; i++ {
		vec.Axpy(1, pts.Point(i, buf), mean)
	}
	vec.Scale(1/float64(n), mean)

	cov := vec.NewMatrix(d, d)
	centred := make([]float64, d)
	for i := 0; i < n; i++ {
		x := pts.Point(i, buf)
		for j := 0; j < d; j++ {
			centred[j] = x[j] - mean[j]
		}
		for a := 0; a < d; a++ {
			vec.Axpy(centred[a], centred, cov.Row(a))
		}
	}
	vec.Scale(1/float64(n), cov.Data)

	vals, vecs := vec.EigSym(cov)
	comp := vec.NewMatrix(d, l)
	for j := 0; j < l; j++ {
		for i := 0; i < d; i++ {
			comp.Set(i, j, vecs.At(i, j))
		}
	}
	return &PCA{Mean: mean, Components: comp, EigVals: vals[:l]}
}

// Project writes the l-dimensional projection of x into dst (allocated when
// nil): dst = Cᵀ(x - mean).
func (p *PCA) Project(x, dst []float64) []float64 {
	l := p.Components.Cols
	if dst == nil {
		dst = make([]float64, l)
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, m := range p.Mean {
		vec.Axpy(x[i]-m, p.Components.Row(i), dst)
	}
	return dst
}

// ProjectAll projects every point of pts into an N×L matrix.
func (p *PCA) ProjectAll(pts sgd.Points) *vec.Matrix {
	n := pts.NumPoints()
	out := vec.NewMatrix(n, p.Components.Cols)
	buf := make([]float64, len(p.Mean))
	for i := 0; i < n; i++ {
		p.Project(pts.Point(i, buf), out.Row(i))
	}
	return out
}

// TPCA is the truncated-PCA binary hash: bit j of x is [cⱼᵀ(x-mean) ≥ 0].
type TPCA struct{ P *PCA }

// FitTPCA fits PCA and wraps it as a hash.
func FitTPCA(pts sgd.Points, l int) *TPCA { return &TPCA{P: Fit(pts, l)} }

// Encode hashes every point of pts into packed binary codes.
func (h *TPCA) Encode(pts sgd.Points) *retrieval.Codes {
	n := pts.NumPoints()
	l := h.P.Components.Cols
	codes := retrieval.NewCodes(n, l)
	buf := make([]float64, len(h.P.Mean))
	proj := make([]float64, l)
	for i := 0; i < n; i++ {
		h.P.Project(pts.Point(i, buf), proj)
		for b := 0; b < l; b++ {
			codes.SetBit(i, b, proj[b] >= 0)
		}
	}
	return codes
}

// ITQ is the iterative-quantisation hash: a learned orthogonal rotation R of
// the PCA projection followed by sign thresholding.
type ITQ struct {
	P *PCA
	R *vec.Matrix // L×L orthogonal
}

// FitITQ fits PCA on the sample, then alternates B = sign(V·R) and the
// orthogonal Procrustes update of R for iters rounds (Gong et al. 2013).
func FitITQ(pts sgd.Points, l, iters int, seed int64) *ITQ {
	p := Fit(pts, l)
	v := p.ProjectAll(pts) // N×L
	rng := rand.New(rand.NewSource(seed))
	g := vec.NewMatrix(l+2, l)
	g.FillGaussian(rng, 1)
	_, _, r := vec.SVDThin(g) // random orthogonal init
	b := vec.NewMatrix(v.Rows, l)
	for it := 0; it < iters; it++ {
		vr := vec.Mul(v, r)
		for i := range vr.Data {
			if vr.Data[i] >= 0 {
				b.Data[i] = 1
			} else {
				b.Data[i] = -1
			}
		}
		// R ← argmin ‖B - V·R‖_F over orthogonal R.
		r = vec.Procrustes(b, v)
	}
	return &ITQ{P: p, R: r}
}

// Encode hashes every point of pts into packed binary codes.
func (h *ITQ) Encode(pts sgd.Points) *retrieval.Codes {
	n := pts.NumPoints()
	l := h.P.Components.Cols
	codes := retrieval.NewCodes(n, l)
	buf := make([]float64, len(h.P.Mean))
	proj := make([]float64, l)
	rot := make([]float64, l)
	for i := 0; i < n; i++ {
		h.P.Project(pts.Point(i, buf), proj)
		h.R.TMulVec(proj, rot)
		for b := 0; b < l; b++ {
			codes.SetBit(i, b, rot[b] >= 0)
		}
	}
	return codes
}

// InitialCodes produces the BA's code initialisation: truncated PCA fitted on
// a subsample of at most maxSample points, applied to the full set (§8.1).
func InitialCodes(ds *dataset.Dataset, l, maxSample int, seed int64) (*retrieval.Codes, *TPCA) {
	sample := ds
	if ds.N > maxSample {
		idx := rand.New(rand.NewSource(seed)).Perm(ds.N)[:maxSample]
		sample = ds.Subset(idx)
	}
	h := FitTPCA(sample, l)
	return h.Encode(ds), h
}
