package binauto

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/retrieval"
	"repro/internal/sgd"
	"repro/internal/vec"
)

// randomCodesW builds n random l-bit codes.
func randomCodesW(n, l int, seed int64) *retrieval.Codes {
	rng := rand.New(rand.NewSource(seed))
	z := retrieval.NewCodes(n, l)
	for i := 0; i < n; i++ {
		for b := 0; b < l; b++ {
			z.SetBit(i, b, rng.Intn(2) == 1)
		}
	}
	return z
}

// FitDecoderExactDense is the dense reference for the exact decoder fit:
// materialise Z̃ = [Z 1] as a 0/1 float matrix and X densely, form the
// normal equations with float products, and solve through the same
// solveNormal the popcount-Gram kernel uses.
func (m *Model) FitDecoderExactDense(pts sgd.Points, z *retrieval.Codes, lambda float64) error {
	n, l, d := pts.NumPoints(), m.L(), m.D()
	xm := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		pts.Point(i, xm.Row(i))
	}
	zt := floatDesignMatrix(z)
	sol, err := solveNormal(zt.Gram(), vec.TMul(zt, xm), lambda, n)
	if err != nil {
		return err
	}
	m.Dec = NewDecoder(l, d)
	for row := 0; row < l; row++ {
		copy(m.Dec.W.Row(row), sol.Row(row))
	}
	copy(m.Dec.C, sol.Row(l))
	return nil
}

// floatDesignMatrix materialises the bias-augmented design matrix Z̃ = [Z 1]
// with 0/1 float features.
func floatDesignMatrix(z *retrieval.Codes) *vec.Matrix {
	xt := vec.NewMatrix(z.N, z.L+1)
	cp := CodesPoints{z}
	for i := 0; i < z.N; i++ {
		cp.Point(i, xt.Row(i)[:z.L])
		xt.Set(i, z.L, 1)
	}
	return xt
}

// floatGramOracle accumulates the bias-augmented Gram matrix Z̃ᵀZ̃ the dense
// path computes: materialise the 0/1 features and multiply.
func floatGramOracle(z *retrieval.Codes) *vec.Matrix {
	return floatDesignMatrix(z).Gram()
}

// TestPopcountGramMatchesFloatGram: the popcount Gram must equal the float
// accumulation exactly — both sides are integer counts, so not even a ULP of
// slack is allowed.
func TestPopcountGramMatchesFloatGram(t *testing.T) {
	for _, tc := range []struct {
		n, l int
	}{{1, 3}, {63, 8}, {64, 8}, {65, 8}, {500, 16}, {300, 33}, {200, 64}} {
		z := randomCodesW(tc.n, tc.l, int64(tc.n*100+tc.l))
		got := NewWKernel(z).Gram()
		want := floatGramOracle(z)
		if d := vec.MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("N=%d L=%d: popcount Gram differs from float Gram by %g", tc.n, tc.l, d)
		}
	}
}

// TestFitDecoderPopcountMatchesDense: for N within one accumulation chunk
// the kernel fit must be bit-for-bit the dense reference for EVERY worker
// count (same integers into the same solve path, fixed summation order).
func TestFitDecoderPopcountMatchesDense(t *testing.T) {
	for _, byteBacked := range []bool{false, true} {
		ds := dataset.GISTLike(400, 24, 4, 31)
		if byteBacked {
			ds = dataset.SIFTLike(400, 24, 4, 31)
		}
		z := randomCodesW(400, 12, 32)
		ref := NewModel(24, 12, 1e-5)
		if err := ref.FitDecoderExactDense(ds, z, 1e-3); err != nil {
			t.Fatal(err)
		}
		for _, workers := range sweepWorkers {
			par := NewModel(24, 12, 1e-5)
			if err := par.FitDecoderExact(ds, z, 1e-3, workers); err != nil {
				t.Fatal(err)
			}
			if d := vec.MaxAbsDiff(par.Dec.W, ref.Dec.W); d != 0 {
				t.Fatalf("byteBacked=%v workers=%d: popcount fit not bitwise equal to dense (|Δ|=%g)", byteBacked, workers, d)
			}
			for j := range par.Dec.C {
				if par.Dec.C[j] != ref.Dec.C[j] {
					t.Fatalf("byteBacked=%v workers=%d: bias %d differs bitwise", byteBacked, workers, j)
				}
			}
		}
	}
}

// TestFitDecoderChunkedLargeN: beyond one chunk the summation order differs
// from the straight dense walk, so the fits agree to 1e-9 — but across
// worker counts the chunk grid is fixed, so they agree bit for bit.
func TestFitDecoderChunkedLargeN(t *testing.T) {
	n := crossChunk + 500
	ds := dataset.GISTLike(n, 16, 4, 33)
	z := randomCodesW(n, 10, 34)
	dense := NewModel(16, 10, 1e-5)
	if err := dense.FitDecoderExactDense(ds, z, 1e-3); err != nil {
		t.Fatal(err)
	}
	ref := NewModel(16, 10, 1e-5)
	if err := ref.FitDecoderExact(ds, z, 1e-3, 1); err != nil {
		t.Fatal(err)
	}
	if d := vec.MaxAbsDiff(ref.Dec.W, dense.Dec.W); d > 1e-9 {
		t.Fatalf("chunked fit drifted from dense by %g > 1e-9", d)
	}
	for _, workers := range sweepWorkers {
		par := NewModel(16, 10, 1e-5)
		if err := par.FitDecoderExact(ds, z, 1e-3, workers); err != nil {
			t.Fatal(err)
		}
		if d := vec.MaxAbsDiff(par.Dec.W, ref.Dec.W); d != 0 {
			t.Fatalf("workers=%d: fit depends on worker count (|Δ|=%g)", workers, d)
		}
	}
}

// TestWKernelColumnsRoundTrip pins the transpose: bit i of column l must be
// Bit(i, l), including across the 64-point word boundary.
func TestWKernelColumnsRoundTrip(t *testing.T) {
	z := randomCodesW(130, 10, 7)
	cols := z.Columns()
	for l := 0; l < z.L; l++ {
		for i := 0; i < z.N; i++ {
			got := cols[l][i/64]&(1<<(uint(i)%64)) != 0
			if got != z.Bit(i, l) {
				t.Fatalf("column %d bit %d: transpose %v, codes %v", l, i, got, z.Bit(i, l))
			}
		}
	}
}

// TestFitDecoderExactDelegates: the model's FitDecoderExact must be the
// kernel path (and therefore the dense result, bit for bit, within a chunk).
func TestFitDecoderExactDelegates(t *testing.T) {
	ds := dataset.GISTLike(150, 10, 3, 41)
	z := randomCodesW(150, 6, 42)
	a := NewModel(10, 6, 1e-5)
	if err := a.FitDecoderExact(ds, z, 1e-3, 1); err != nil {
		t.Fatal(err)
	}
	b := NewModel(10, 6, 1e-5)
	if err := b.FitDecoderExactDense(ds, z, 1e-3); err != nil {
		t.Fatal(err)
	}
	if d := vec.MaxAbsDiff(a.Dec.W, b.Dec.W); d != 0 {
		t.Fatalf("FitDecoderExact drifted from the dense reference (|Δ|=%g)", d)
	}
}

// decoderData builds the points f(z_i) + noise·ε of a known random decoder
// over codes z: the exact fit's recovery target.
func decoderData(z *retrieval.Codes, d int, noise float64, seed int64) (*dataset.Dataset, *Decoder) {
	rng := rand.New(rand.NewSource(seed))
	dec := NewDecoder(z.L, d)
	dec.W.FillGaussian(rng, 1)
	for j := range dec.C {
		dec.C[j] = rng.NormFloat64()
	}
	x := vec.NewMatrix(z.N, d)
	for i := 0; i < z.N; i++ {
		dec.Reconstruct(z, i, x.Row(i))
		for j := range x.Row(i) {
			x.Row(i)[j] += noise * rng.NormFloat64()
		}
	}
	return dataset.FromMatrix(x), dec
}

// TestFitDecoderExactRecoversMap: on noiseless data X = f(Z) the unridged
// fit must return f itself, every output dimension and the bias.
func TestFitDecoderExactRecoversMap(t *testing.T) {
	z := randomCodesW(300, 6, 81)
	ds, want := decoderData(z, 5, 0, 82)
	m := NewModel(5, 6, 1e-5)
	if err := m.FitDecoderExact(ds, z, 0, 1); err != nil {
		t.Fatal(err)
	}
	if d := vec.MaxAbsDiff(m.Dec.W, want.W); d > 1e-8 {
		t.Fatalf("W not recovered (|Δ|=%g)", d)
	}
	for j := range want.C {
		if math.Abs(m.Dec.C[j]-want.C[j]) > 1e-8 {
			t.Fatalf("C[%d]=%v want %v", j, m.Dec.C[j], want.C[j])
		}
	}
}

// TestFitDecoderExactRidgeShrinksWeights: a large λ must shrink the decoder
// weights below the unridged fit's.
func TestFitDecoderExactRidgeShrinksWeights(t *testing.T) {
	z := randomCodesW(300, 4, 83)
	ds, _ := decoderData(z, 4, 0.5, 84)
	m0, m1 := NewModel(4, 4, 1e-5), NewModel(4, 4, 1e-5)
	if err := m0.FitDecoderExact(ds, z, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m1.FitDecoderExact(ds, z, 1000, 1); err != nil {
		t.Fatal(err)
	}
	if n0, n1 := vec.SqNorm(m0.Dec.W.Data), vec.SqNorm(m1.Dec.W.Data); n1 >= n0 {
		t.Fatalf("ridge did not shrink: %v vs %v", n1, n0)
	}
}

// TestFitDecoderExactRankDeficientFallsBackToJitter: two identical bit
// columns make Z̃ᵀZ̃ singular at λ=0 — with 16 set bits the second pivot is
// exactly 16 − 4² = 0 — so only solveNormal's jitter retry can produce a
// decoder. It must still reconstruct X = f(Z).
func TestFitDecoderExactRankDeficientFallsBackToJitter(t *testing.T) {
	const n = 50
	z := randomCodesW(n, 4, 85)
	rng := rand.New(rand.NewSource(86))
	set := map[int]bool{}
	for _, i := range rng.Perm(n)[:16] {
		set[i] = true
	}
	for i := 0; i < n; i++ {
		z.SetBit(i, 0, set[i])
		z.SetBit(i, 1, set[i])
	}
	if _, err := vec.NewCholesky(NewWKernel(z).Gram()); err == nil {
		t.Fatal("fixture Gram factors without jitter; the test would not reach the retry")
	}
	ds, _ := decoderData(z, 3, 0, 87)
	m := NewModel(3, 4, 1e-5)
	if err := m.FitDecoderExact(ds, z, 0, 1); err != nil {
		t.Fatal(err)
	}
	if e := m.EQ(ds, z, 0); e > 1e-6 {
		t.Fatalf("jittered fit reconstructs with error %g", e)
	}
}
