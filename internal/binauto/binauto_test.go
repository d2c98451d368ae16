package binauto

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pca"
	"repro/internal/retrieval"
	"repro/internal/sgd"
	"repro/internal/vec"
)

// sweepWorkers are the worker counts every pooled entry point is checked at:
// serial, small, odd, more than the chunk count allows, and every core.
var sweepWorkers = []int{1, 2, 3, 8, -1}

// randomCodes builds n random l-bit codes.
func randomCodes(n, l int, seed int64) *retrieval.Codes {
	rng := rand.New(rand.NewSource(seed))
	z := retrieval.NewCodes(n, l)
	for i := 0; i < n; i++ {
		for b := 0; b < l; b++ {
			z.SetBit(i, b, rng.Intn(2) == 1)
		}
	}
	return z
}

// equalCodes reports whether two code sets are identical.
func equalCodes(a, b *retrieval.Codes) bool {
	return a.N == b.N && a.L == b.L && slices.Equal(a.Data, b.Data)
}

// cloneCodes returns a deep copy of c.
func cloneCodes(c *retrieval.Codes) *retrieval.Codes {
	out := retrieval.NewCodes(c.N, c.L)
	copy(out.Data, c.Data)
	return out
}

// randomModel builds a BA with random encoder/decoder weights for Z-step
// oracle tests.
func randomModel(d, l int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel(d, l, 1e-4)
	for _, e := range m.Enc {
		for j := range e.W {
			e.W[j] = rng.NormFloat64()
		}
		e.B = rng.NormFloat64()
	}
	m.Dec.W.FillGaussian(rng, 1)
	for j := range m.Dec.C {
		m.Dec.C[j] = rng.NormFloat64()
	}
	return m
}

// PointObjective evaluates ‖x − f(z_i)‖² + μ‖z_i − h(x)‖² directly, in
// O(L·D): the oracle for the solvers' incrementally accumulated objective.
func PointObjective(m *Model, x []float64, z *retrieval.Codes, i int, mu float64) float64 {
	rec := reconstruct(m.Dec, z, i, nil)
	obj := vec.SqDist(x, rec)
	for l := range m.Enc {
		if z.Bit(i, l) != m.Enc[l].Predict(x) {
			obj += mu
		}
	}
	return obj
}

// reconstruct writes f(z) for code i of codes into dst (allocated when nil),
// walking the set bits of the packed words.
func reconstruct(d *Decoder, codes *retrieval.Codes, i int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(d.C))
	}
	copy(dst, d.C)
	for wi, w := range codes.Code(i) {
		for ; w != 0; w &= w - 1 {
			vec.Axpy(1, d.W.Row(wi*64+bits.TrailingZeros64(w)), dst)
		}
	}
	return dst
}

// modelEQ evaluates the quadratic-penalty objective of eq. (3),
// Σ_n ‖x_n − f(z_n)‖² + μ‖z_n − h(x_n)‖², directly in O(L·D) per point: the
// oracle for the Z step's E_Q sums. Since z and h(x) are binary, the penalty
// term is μ times the Hamming distance, a popcount over the packed words.
func modelEQ(m *Model, pts sgd.Points, z *retrieval.Codes, mu float64) float64 {
	n := pts.NumPoints()
	if z.N != n {
		panic("binauto: modelEQ needs one code per point")
	}
	buf := make([]float64, m.D())
	rec := make([]float64, m.D())
	var total float64
	for i := 0; i < n; i++ {
		x := pts.Point(i, buf)
		reconstruct(m.Dec, z, i, rec)
		total += vec.SqDist(x, rec)
		total += mu * float64(bits.OnesCount64(z.Word64(i)^m.EncodePointWord(x)))
	}
	return total
}

// BruteForceZ solves one point by explicit search over all 2^L codes: the
// oracle for the Gray-code enumeration.
func BruteForceZ(m *Model, x []float64, mu float64) (uint64, float64) {
	l := m.L()
	if l > 20 {
		panic("binauto: BruteForceZ limited to small L")
	}
	z := retrieval.NewCodes(1, l)
	best := uint64(0)
	bestObj := math.Inf(1)
	for code := uint64(0); code < 1<<uint(l); code++ {
		for b := 0; b < l; b++ {
			z.SetBit(0, b, code&(1<<uint(b)) != 0)
		}
		if obj := PointObjective(m, x, z, 0, mu); obj < bestObj {
			bestObj = obj
			best = code
		}
	}
	return best, bestObj
}

func TestDecoderReconstruct(t *testing.T) {
	m := NewModel(2, 2, 0)
	m.Dec.W.Set(0, 0, 1) // B_0 = (1,0)
	m.Dec.W.Set(1, 1, 2) // B_1 = (0,2)
	m.Dec.C = []float64{0.5, 0.5}
	z := retrieval.NewCodes(1, 2)
	z.SetBit(0, 0, true)
	z.SetBit(0, 1, true)
	rec := reconstruct(m.Dec, z, 0, nil)
	if rec[0] != 1.5 || rec[1] != 2.5 {
		t.Fatalf("reconstruct = %v", rec)
	}
}

func TestEQEqualsEBAWhenZIsHash(t *testing.T) {
	ds := dataset.GISTLike(40, 4, 3, 3)
	m := randomModel(4, 5, 4)
	z := m.Encode(ds, 1)
	eq := modelEQ(m, ds, z, 7.5)
	eba := m.EBA(ds)
	if math.Abs(eq-eba) > 1e-9 {
		t.Fatalf("EQ(h(X)) = %v must equal EBA = %v", eq, eba)
	}
}

func TestEQPenaltyCountsHamming(t *testing.T) {
	ds := dataset.GISTLike(10, 3, 2, 5)
	m := randomModel(3, 4, 6)
	z := m.Encode(ds, 1)
	base := modelEQ(m, ds, z, 2.0)
	z.SetBit(0, 1, !z.Bit(0, 1)) // one bit of disagreement
	withFlip := modelEQ(m, ds, z, 2.0)
	// The reconstruction term changes too; isolate the penalty by μ=0 diff.
	z2 := m.Encode(ds, 1)
	z2.SetBit(0, 1, !z2.Bit(0, 1))
	recDelta := modelEQ(m, ds, z2, 0) - modelEQ(m, ds, m.Encode(ds, 1), 0)
	if math.Abs((withFlip-base)-(recDelta+2.0)) > 1e-9 {
		t.Fatalf("penalty accounting wrong: %v vs %v", withFlip-base, recDelta+2.0)
	}
}

// TestZEnumerateMatchesBruteForce: over code lengths that exercise the
// half-table split (odd L, and no low half at L=1) and penalties from none to
// dominant, the enumerated code's direct objective is within 1e-9·(1+|obj|)
// of the exhaustive minimum.
func TestZEnumerateMatchesBruteForce(t *testing.T) {
	for _, l := range []int{1, 2, 3, 5, 8, 11, 12} {
		for mi, mu := range []float64{0, 1e-3, 0.5, 10} {
			seed := int64(100*l + mi)
			m := randomModel(6, l, seed)
			ds := dataset.GISTLike(5, 6, 2, seed)
			for i := 0; i < ds.N; i++ {
				checkEnumerateOptimal(t, m, ds.Point(i, nil), mu)
			}
		}
	}
}

func TestZAlternateNeverWorseThanHashCode(t *testing.T) {
	// The alternating solution must have objective <= the code z = h(x)
	// whenever it starts from the relaxed solution and only takes improving
	// flips... the relaxed init may differ, but local search guarantees a
	// local optimum; we check it is never worse than both the hash code's
	// neighbourhood-0 baseline and its own starting point by comparing with
	// exhaustive search tolerance on small L.
	for trial := int64(0); trial < 6; trial++ {
		m := randomModel(5, 8, 300+trial)
		ds := dataset.GISTLike(6, 5, 2, 400+trial)
		mu := 0.5
		alt := NewZKernel(m, mu, ZAlternate).NewSolver()
		z := retrieval.NewCodes(ds.N, 8)
		var sumGot, sumOpt float64
		for i := 0; i < ds.N; i++ {
			x := ds.Point(i, nil)
			alt.Solve(x, z, i)
			got := PointObjective(m, x, z, i, mu)
			_, opt := BruteForceZ(m, x, mu)
			if got < opt-1e-9 {
				t.Fatalf("alternating beat the optimum?! %v < %v", got, opt)
			}
			sumGot += got
			sumOpt += opt
		}
		// The local search may miss the global optimum per point (random
		// decoders are adversarial for it) but must stay in its ballpark on
		// average.
		if sumGot > 2*sumOpt+1 {
			t.Fatalf("alternating mean objective %v too far from optimum %v", sumGot, sumOpt)
		}
	}
}

func TestZAlternateIsLocalOptimum(t *testing.T) {
	// No single-bit flip of the alternating solution may decrease the
	// objective.
	m := randomModel(6, 10, 500)
	ds := dataset.GISTLike(8, 6, 3, 501)
	mu := 0.3
	s := NewZKernel(m, mu, ZAlternate).NewSolver()
	z := retrieval.NewCodes(ds.N, 10)
	for i := 0; i < ds.N; i++ {
		x := ds.Point(i, nil)
		s.Solve(x, z, i)
		base := PointObjective(m, x, z, i, mu)
		for b := 0; b < 10; b++ {
			z.SetBit(i, b, !z.Bit(i, b))
			if PointObjective(m, x, z, i, mu) < base-1e-9 {
				t.Fatalf("point %d bit %d: flip improves, not a local optimum", i, b)
			}
			z.SetBit(i, b, !z.Bit(i, b))
		}
	}
}

func TestZAutoSelection(t *testing.T) {
	m := randomModel(4, 8, 1)
	if NewZKernel(m, 1, ZAuto).Method != ZEnumerate {
		t.Fatal("ZAuto should enumerate at L=8")
	}
	m32 := randomModel(4, 32, 2)
	if NewZKernel(m32, 1, ZAuto).Method != ZAlternate {
		t.Fatal("ZAuto should alternate at L=32")
	}
}

func TestRunZStepReportsChanges(t *testing.T) {
	m := randomModel(5, 6, 600)
	ds := dataset.GISTLike(20, 5, 2, 601)
	z := retrieval.NewCodes(ds.N, 6) // all zeros: certainly changes
	changed, _, _ := NewZKernel(m, 0.5, ZEnumerate).Run(ds, z, 1)
	if changed == 0 {
		t.Fatal("expected changes from all-zero init")
	}
	// Second run from the optimum must change nothing (enumeration is exact
	// and deterministic).
	if again, _, _ := NewZKernel(m, 0.5, ZEnumerate).Run(ds, z, 1); again != 0 {
		t.Fatalf("re-solve changed %d codes; enumeration must be idempotent", again)
	}
}

func TestZStepDecreasesEQ(t *testing.T) {
	// Property: the Z step can only decrease E_Q for the same model and μ.
	f := func(seed int64) bool {
		m := randomModel(4, 5, seed)
		ds := dataset.GISTLike(10, 4, 2, seed+1)
		z := m.Encode(ds, 1) // start from h(X)
		before := modelEQ(m, ds, z, 0.7)
		NewZKernel(m, 0.7, ZEnumerate).Run(ds, z, 1)
		after := modelEQ(m, ds, z, 0.7)
		return after <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeParallelBitIdentical: the pooled encoder must match the
// per-point EncodePointWord loop for any worker count, and EncodeParallel
// must be Encode.
func TestEncodeParallelBitIdentical(t *testing.T) {
	ds := dataset.SIFTLike(500, 12, 4, 98)
	m := randomModel(12, 10, 99)
	want := retrieval.NewCodes(ds.N, m.L())
	for i := 0; i < ds.N; i++ {
		want.SetWord64(i, m.EncodePointWord(ds.Point(i, nil)))
	}
	for _, workers := range sweepWorkers {
		if got := m.Encode(ds, workers); !equalCodes(got, want) {
			t.Fatalf("workers=%d: Encode differs from the per-point loop", workers)
		}
	}
	if !equalCodes(m.EncodeParallel(ds, -1), want) {
		t.Fatal("EncodeParallel differs from Encode")
	}
}

// TestMACPrecisionBeatsInitTPCA is the headline claim of the BA paper:
// MAC-trained hashes are not worse than the tPCA initialisation on retrieval
// precision. MAC is ParMAC on one machine.
func TestMACPrecisionBeatsInitTPCA(t *testing.T) {
	ds := dataset.GISTLike(500, 16, 10, 1200)
	queries := dataset.GISTLike(50, 16, 10, 1200)
	truth := retrieval.GroundTruth(ds, queries, 50, 1)

	prob := NewParMACProblem(ds, dataset.ShardIndices(ds.N, 1, nil), ParMACConfig{
		L: 10, Mu0: 1e-4, MuFactor: 2, Seed: 1201,
	})
	eng := core.New(prob, core.Config{P: 1, Epochs: 3, Seed: 1201}, prob.Machine)
	defer eng.Shutdown()
	eng.Run(12)
	val := &Validation{Base: ds, Queries: queries, Truth: truth, K: 50}
	macScore := val.Score(prob.AssembleModel())

	tp := pca.FitTPCA(ds, 10)
	tpcaScore := retrieval.Precision(truth, retrieval.AllTopKHamming(tp.Encode(ds), tp.Encode(queries), 50, 1))
	t.Logf("MAC precision %.3f vs tPCA %.3f", macScore, tpcaScore)
	if macScore < tpcaScore-0.02 {
		t.Fatalf("MAC (%.3f) should not be clearly worse than tPCA (%.3f)", macScore, tpcaScore)
	}
}
