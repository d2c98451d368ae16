// Package binauto implements the binary autoencoder (BA) of §3.1 and its MAC
// training (Fig. 1): an encoder h(x) = step(Ax) of L linear hash functions,
// a linear decoder f(z) = Wᵀz + c, the nested objective E_BA and the
// quadratic-penalty objective E_Q.
//
// A BA trains one way, as a ParMACProblem run by the engine in internal/core
// (§4). The W step trains the L per-bit SVMs and the decoder groups as
// submodels that circulate over the machines by SGD; the Z step solves each
// machine's codes on its own shard, exactly by enumerating all 2^L codes
// (L ≤ EnumLimit) or by alternating optimisation from the truncated relaxed
// solution; the penalty μ grows geometrically per iteration. One machine
// (P=1) is the single-machine MAC.
//
// The kernel (RBF) variant of §8.4 is obtained by pre-transforming the
// features with svm.KernelMap; the model itself is always linear over its
// input features, exactly as in the paper.
package binauto

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/retrieval"
	"repro/internal/sgd"
	"repro/internal/svm"
	"repro/internal/vec"
)

// Decoder is the linear decoder f(z) = Wᵀz + c mapping L-bit codes to R^D.
// W is stored L×D so that row l is the contribution B_l of bit l, the vector
// the Z-step works with.
type Decoder struct {
	W *vec.Matrix // L×D; row l = B_l
	C []float64   // D
}

// NewDecoder allocates a zero decoder.
func NewDecoder(l, d int) *Decoder {
	return &Decoder{W: vec.NewMatrix(l, d), C: make([]float64, d)}
}

// Clone returns a deep copy.
func (d *Decoder) Clone() *Decoder {
	return &Decoder{W: d.W.Clone(), C: vec.Clone(d.C)}
}

// Model is a binary autoencoder: L hash-function submodels (one linear SVM
// per bit, §3.1) and a linear decoder.
type Model struct {
	Enc []*svm.Linear // L hash functions h_l
	Dec *Decoder
}

// NewModel creates a zero-initialised BA for d-dimensional inputs and l bits.
// lambda is the SVM regularisation used by the per-bit encoders.
func NewModel(d, l int, lambda float64) *Model {
	enc := make([]*svm.Linear, l)
	for i := range enc {
		enc[i] = svm.NewLinear(d, lambda)
	}
	return &Model{Enc: enc, Dec: NewDecoder(l, d)}
}

// L returns the number of bits.
func (m *Model) L() int { return len(m.Enc) }

// D returns the input dimensionality.
func (m *Model) D() int { return len(m.Enc[0].W) }

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	enc := make([]*svm.Linear, len(m.Enc))
	for i, e := range m.Enc {
		enc[i] = e.Clone()
	}
	return &Model{Enc: enc, Dec: m.Dec.Clone()}
}

// EncodeBit returns h_l(x).
func (m *Model) EncodeBit(l int, x []float64) bool { return m.Enc[l].Predict(x) }

// EncodePointWord returns h(x) packed into one uint64, bit l = h_l(x).
// Valid for L <= 64, the packed-word regime every training path enforces.
func (m *Model) EncodePointWord(x []float64) uint64 {
	if len(m.Enc) > 64 {
		panic("binauto: EncodePointWord needs L <= 64")
	}
	var w uint64
	for l := range m.Enc {
		if m.Enc[l].Predict(x) {
			w |= 1 << uint(l)
		}
	}
	return w
}

// Encode hashes every point of pts into packed codes, one word store per
// point when L <= 64, with the point loop chunked over workers goroutines
// (core.Cores semantics). Points hash independently, so the codes are
// bit-identical for any worker count.
func (m *Model) Encode(pts sgd.Points, workers int) *retrieval.Codes {
	n := pts.NumPoints()
	codes := retrieval.NewCodes(n, m.L())
	packed := m.L() <= 64
	core.ParallelChunks(n, core.ClampWorkers(n, core.Cores(workers)), func(_, lo, hi int) {
		buf := make([]float64, m.D())
		for i := lo; i < hi; i++ {
			x := pts.Point(i, buf)
			if packed {
				codes.SetWord64(i, m.EncodePointWord(x))
				continue
			}
			for l := range m.Enc {
				codes.SetBit(i, l, m.Enc[l].Predict(x))
			}
		}
	})
	return codes
}

// EncodeParallel is Encode. It remains only because the benchmark module
// calls it (bench/serve.go); a benchmark-only change retires it.
func (m *Model) EncodeParallel(pts sgd.Points, workers int) *retrieval.Codes {
	return m.Encode(pts, workers)
}

// EBA computes the nested binary-autoencoder error of eq. (1):
// Σ_n ‖x_n − f(h(x_n))‖².
func (m *Model) EBA(pts sgd.Points) float64 {
	n := pts.NumPoints()
	d := m.D()
	buf := make([]float64, d)
	rec := make([]float64, d)
	var total float64
	for i := 0; i < n; i++ {
		x := pts.Point(i, buf)
		copy(rec, m.Dec.C)
		if m.L() <= 64 {
			for w := m.EncodePointWord(x); w != 0; w &= w - 1 {
				vec.Axpy(1, m.Dec.W.Row(bits.TrailingZeros64(w)), rec)
			}
		} else {
			for l := range m.Enc {
				if m.Enc[l].Predict(x) {
					vec.Axpy(1, m.Dec.W.Row(l), rec)
				}
			}
		}
		total += vec.SqDist(x, rec)
	}
	return total
}

// Validation bundles what is needed to measure retrieval precision during
// training, the score the learning curves of Figs. 7–9 report.
type Validation struct {
	Base    sgd.Points // points to index (their codes form the database)
	Queries sgd.Points
	Truth   [][]int // exact Euclidean neighbours per query
	K       int     // retrieved set size k
}

// Score computes the precision@K of the model's hash on one goroutine.
func (v *Validation) Score(m *Model) float64 {
	base := m.Encode(v.Base, 1)
	qc := m.Encode(v.Queries, 1)
	return retrieval.Precision(v.Truth, retrieval.AllTopKHamming(base, qc, v.K, 1))
}
