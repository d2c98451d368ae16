package binauto

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/retrieval"
	"repro/internal/sgd"
	"repro/internal/vec"
)

// WKernel is the W-step mirror of the Z step's ZKernel: the per-codes
// precomputation behind the exact decoder fit ("f ← least-squares fit to
// (Z,X)", Fig. 1). The normal equations of that fit are
//
//	(Z̃ᵀZ̃ + λI)·W̃ = Z̃ᵀX,   Z̃ = [Z 1]
//
// and both sides decompose into quantities a packed-code layout computes
// without ever materialising Z as floats:
//
//   - the Gram matrix Z̃ᵀZ̃ is pure bit counting. Over the 0/1 features the
//     decoder consumes, entry (a,b) is popcount(col_a ∧ col_b) on the
//     column-major transpose — the same identity that gives ±1 codes
//     row-dot(a,b) = N − 2·popcount(col_a ⊕ col_b) — so the L²/2 column dots
//     cost N/64 word-popcounts each instead of N float multiplies. The
//     counts are integers, so the result is bitwise identical to the float
//     accumulation it replaces.
//   - the cross-products Z̃ᵀX accumulate x_i into the rows named by the set
//     bits of z_i (plus the bias row), one point read each, sharded over a
//     core.ParallelChunks pool with per-goroutine partial matrices reduced
//     in worker order.
//
// The solve goes through solveNormal, and the cross-products accumulate on a
// fixed chunk grid (crossChunk), so the fitted decoder is bit-for-bit
// identical for every worker count — and bit-for-bit the dense
// materialise-and-solve reference whenever N fits one chunk. A kernel is
// immutable after construction; Cross may be called concurrently.
type WKernel struct {
	L, N int
	z    *retrieval.Codes // row-major codes (borrowed; not mutated)
	cols [][]uint64       // column-major transpose, one N-bit set per bit
}

// NewWKernel builds the packed-column view of z. O(N·L/64 + Σ popcount).
func NewWKernel(z *retrieval.Codes) *WKernel {
	return &WKernel{L: z.L, N: z.N, z: z, cols: z.Columns()}
}

// Gram returns the bias-augmented normal-equation matrix Z̃ᵀZ̃,
// (L+1)×(L+1), assembled entirely from popcounts.
func (k *WKernel) Gram() *vec.Matrix {
	g := vec.NewMatrix(k.L+1, k.L+1)
	for a := 0; a < k.L; a++ {
		for b := a; b < k.L; b++ {
			v := float64(retrieval.PopcountAndWords(k.cols[a], k.cols[b]))
			g.Set(a, b, v)
			g.Set(b, a, v)
		}
		// Bias column: Σ_i z_ia·1 = popcount(col_a).
		ones := float64(retrieval.PopcountWords(k.cols[a]))
		g.Set(a, k.L, ones)
		g.Set(k.L, a, ones)
	}
	g.Set(k.L, k.L, float64(k.N))
	return g
}

// crossChunk is the fixed accumulation granule of Cross. Chunk boundaries
// depend only on N — never on the worker count — so the summation order, and
// therefore the fitted decoder, is bitwise identical for every Parallel
// setting; the knob stays a pure speed knob. One chunk covers N ≤ crossChunk,
// where the result is additionally bitwise the dense straight accumulation.
const crossChunk = 2048

// Cross accumulates the cross-products Z̃ᵀX ((L+1)×d) over pts with up to
// workers goroutines. The points are summed in fixed crossChunk-sized
// partial matrices reduced in chunk order (see crossChunk for the
// determinism contract); workers only decides how many chunks are in flight
// at once. Skipping a zero bit adds exactly the ±0 the dense path adds, so
// per chunk the accumulation matches the dense X̃ᵀY walk term for term.
func (k *WKernel) Cross(pts sgd.Points, d, workers int) *vec.Matrix {
	nchunks := (k.N + crossChunk - 1) / crossChunk
	if nchunks == 0 {
		return vec.NewMatrix(k.L+1, d)
	}
	parts := make([]*vec.Matrix, nchunks)
	core.ParallelChunks(nchunks, core.Cores(workers), func(_, lo, hi int) {
		buf := make([]float64, d)
		for c := lo; c < hi; c++ {
			acc := vec.NewMatrix(k.L+1, d)
			pHi := (c + 1) * crossChunk
			if pHi > k.N {
				pHi = k.N
			}
			k.accumulateCross(pts, c*crossChunk, pHi, acc, buf)
			parts[c] = acc
		}
	})
	total := parts[0]
	for _, p := range parts[1:] {
		total.AddMatrix(p)
	}
	return total
}

// accumulateCross adds Σ_{i∈[lo,hi)} z̃_i·x_iᵀ into acc: walk the set bits of
// code i (ascending), add x_i to each named row, then to the bias row.
func (k *WKernel) accumulateCross(pts sgd.Points, lo, hi int, acc *vec.Matrix, buf []float64) {
	for i := lo; i < hi; i++ {
		x := pts.Point(i, buf)
		for wi, w := range k.z.Code(i) {
			base := wi * 64
			for w != 0 {
				vec.Axpy(1, x, acc.Row(base+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		vec.Axpy(1, x, acc.Row(k.L))
	}
}

// FitDecoder solves the ridge normal equations for the exact decoder over
// (pts, z) with up to workers goroutines for the cross-product accumulation.
func (k *WKernel) FitDecoder(pts sgd.Points, d int, lambda float64, workers int) (*Decoder, error) {
	gram := k.Gram()
	cross := k.Cross(pts, d, workers)
	sol, err := solveNormal(gram, cross, lambda, k.N)
	if err != nil {
		return nil, err
	}
	dec := NewDecoder(k.L, d)
	for row := 0; row < k.L; row++ {
		copy(dec.W.Row(row), sol.Row(row))
	}
	copy(dec.C, sol.Row(k.L))
	return dec, nil
}

// solveNormal solves the ridge normal equations (G + λI)·W̃ = R for W̃, where
// G is the (L+1)×(L+1) bias-augmented Gram matrix Z̃ᵀZ̃ and R = Z̃ᵀX. lambda
// is added to every diagonal entry, bias included; a singular system is
// retried once with a 1e-8·n jitter, n being the row count G was accumulated
// over. G is clobbered by the factorisation.
func solveNormal(gram, rhs *vec.Matrix, lambda float64, n int) (*vec.Matrix, error) {
	gram.AddScaledIdentity(lambda)
	ch, err := vec.NewCholesky(gram)
	if err != nil {
		gram.AddScaledIdentity(1e-8 * float64(n))
		ch, err = vec.NewCholesky(gram)
		if err != nil {
			return nil, err
		}
	}
	return ch.SolveMatrix(rhs), nil
}
