// Package binauto implements the binary autoencoder (BA) of §3.1 and its MAC
// training algorithm (Fig. 1): an encoder h(x) = step(Ax) of L linear hash
// functions, a linear decoder f(z) = Wᵀz + c, the nested objective E_BA, the
// quadratic-penalty objective E_Q, the Z step (exact enumeration via Gray
// codes, or alternating optimisation initialised from the truncated relaxed
// solution), and the serial MAC loop with its μ schedule and stopping rules.
//
// The kernel (RBF) variant of §8.4 is obtained by pre-transforming the
// features with svm.KernelMap; the model itself is always linear over its
// input features, exactly as in the paper.
package binauto

import (
	"math/bits"
	"math/rand"

	"repro/internal/core"
	"repro/internal/linreg"
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

// L returns the code length, D the output dimension.
func (d *Decoder) L() int { return d.W.Rows }

// D returns the output dimensionality.
func (d *Decoder) D() int { return d.W.Cols }

// Reconstruct writes f(z) for code i of codes into dst (allocated when nil).
// It walks the set bits of the packed words directly instead of testing all L
// bits one at a time.
func (d *Decoder) Reconstruct(codes *retrieval.Codes, i int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, d.D())
	}
	copy(dst, d.C)
	for wi, w := range codes.Code(i) {
		base := wi * 64
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			vec.Axpy(1, d.W.Row(base+b), dst)
		}
	}
	return dst
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

// EncodePoint writes h(x) into bits (allocated when nil).
func (m *Model) EncodePoint(x []float64, bits []bool) []bool {
	if bits == nil {
		bits = make([]bool, m.L())
	}
	for l := range m.Enc {
		bits[l] = m.Enc[l].Predict(x)
	}
	return bits
}

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
// point when L <= 64.
func (m *Model) Encode(pts sgd.Points) *retrieval.Codes {
	n := pts.NumPoints()
	codes := retrieval.NewCodes(n, m.L())
	buf := make([]float64, m.D())
	if m.L() <= 64 {
		for i := 0; i < n; i++ {
			codes.SetWord64(i, m.EncodePointWord(pts.Point(i, buf)))
		}
		return codes
	}
	for i := 0; i < n; i++ {
		x := pts.Point(i, buf)
		for l := range m.Enc {
			codes.SetBit(i, l, m.Enc[l].Predict(x))
		}
	}
	return codes
}

// EncodeParallel is Encode with the point loop chunked over workers
// goroutines (0/1 serial, < 0 every core). Points hash independently, so the
// codes are bit-identical to Encode for any worker count. This is the
// encoding path of Validation.Score, where hashing the base set is the
// largest single cost at large N.
func (m *Model) EncodeParallel(pts sgd.Points, workers int) *retrieval.Codes {
	n := pts.NumPoints()
	workers = core.ClampWorkers(n, core.Cores(workers))
	if workers <= 1 {
		return m.Encode(pts)
	}
	codes := retrieval.NewCodes(n, m.L())
	packed := m.L() <= 64
	core.ParallelChunks(n, workers, func(_, lo, hi int) {
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

// EQ computes the quadratic-penalty objective of eq. (3):
// Σ_n ‖x_n − f(z_n)‖² + μ‖z_n − h(x_n)‖². Since z and h(x) are binary, the
// penalty term is μ times the Hamming distance, a popcount over packed words
// when L <= 64.
func (m *Model) EQ(pts sgd.Points, z *retrieval.Codes, mu float64) float64 {
	n := pts.NumPoints()
	if z.N != n {
		panic("binauto: EQ needs one code per point")
	}
	d := m.D()
	buf := make([]float64, d)
	rec := make([]float64, d)
	var total float64
	for i := 0; i < n; i++ {
		x := pts.Point(i, buf)
		m.Dec.Reconstruct(z, i, rec)
		total += vec.SqDist(x, rec)
		if m.L() <= 64 {
			total += mu * float64(bits.OnesCount64(z.Word64(i)^m.EncodePointWord(x)))
		} else {
			for l := range m.Enc {
				if z.Bit(i, l) != m.Enc[l].Predict(x) {
					total += mu
				}
			}
		}
	}
	return total
}

// CodesPoints adapts packed codes to the sgd.Points interface with 0/1 float
// features, which is how the decoder submodels consume the auxiliary
// coordinates during the W step.
type CodesPoints struct{ Z *retrieval.Codes }

// NumPoints returns the number of codes.
func (c CodesPoints) NumPoints() int { return c.Z.N }

// Point writes code i as a 0/1 float vector into dst: clear, then set only
// the positions of the set bits read word by word.
func (c CodesPoints) Point(i int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, c.Z.L)
	}
	for l := 0; l < c.Z.L; l++ {
		dst[l] = 0
	}
	for wi, w := range c.Z.Code(i) {
		base := wi * 64
		for w != 0 {
			dst[base+bits.TrailingZeros64(w)] = 1
			w &= w - 1
		}
	}
	return dst
}

// FitDecoderExact replaces the decoder with the exact least-squares fit of
// (Z, X), the serial W step of Fig. 1 ("f ← least-squares fit to (Z,X)"). It
// runs the popcount-Gram WKernel serially; see FitDecoderExactParallel for
// the pooled version and FitDecoderExactDense for the dense reference.
func (m *Model) FitDecoderExact(pts sgd.Points, z *retrieval.Codes, lambda float64) error {
	return m.FitDecoderExactParallel(pts, z, lambda, 1)
}

// FitDecoderExactParallel is FitDecoderExact through the popcount-Gram
// WKernel, with up to workers goroutines (0/1 serial, < 0 every core) for
// the cross-product accumulation. The accumulation granule is fixed (see
// crossChunk), so the fitted decoder is bit-for-bit identical for every
// worker count; against the dense reference it is bitwise equal for
// N ≤ crossChunk and within summation rounding (≪ 1e-9 at benchmark
// scales) beyond.
func (m *Model) FitDecoderExactParallel(pts sgd.Points, z *retrieval.Codes, lambda float64, workers int) error {
	dec, err := NewWKernel(z).FitDecoder(pts, m.D(), lambda, workers)
	if err != nil {
		return err
	}
	m.Dec = dec
	return nil
}

// FitDecoderExactDense is the pre-WKernel reference implementation of the
// exact decoder fit: materialise Z as a 0/1 float matrix and X as a dense
// matrix, then solve via linreg.FitExact. Kept as the dense oracle the
// popcount-Gram kernel tests compare against.
func (m *Model) FitDecoderExactDense(pts sgd.Points, z *retrieval.Codes, lambda float64) error {
	n := pts.NumPoints()
	zm := vec.NewMatrix(n, m.L())
	cp := CodesPoints{z}
	for i := 0; i < n; i++ {
		cp.Point(i, zm.Row(i))
	}
	xm := vec.NewMatrix(n, m.D())
	for i := 0; i < n; i++ {
		pts.Point(i, xm.Row(i))
	}
	fit, err := linreg.FitExact(zm, xm, lambda)
	if err != nil {
		return err
	}
	m.Dec.W = fit.W
	m.Dec.C = fit.C
	return nil
}

// InitEncoderRandom gives the encoder small random weights; useful for tests
// and as a fallback before the first W step.
func (m *Model) InitEncoderRandom(rng *rand.Rand, sigma float64) {
	for _, e := range m.Enc {
		for j := range e.W {
			e.W[j] = rng.NormFloat64() * sigma
		}
		e.B = rng.NormFloat64() * sigma
	}
}
