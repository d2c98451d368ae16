package binauto

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/retrieval"
)

// grayWalkZ is the reference enumeration: all 2^L codes in Gray-code order
// z = k ^ (k>>1), each candidate's error updated from its predecessor's at
// O(L) through flipTo. It returns the first strictly smallest code and its
// objective as accumulated along the walk. s must come from a ZEnumerate
// kernel; the walk uses only its scratch.
func grayWalkZ(s *ZSolver, x []float64) (uint64, float64) {
	s.hw = s.encodeWord(x)
	err := s.begin(x)
	copy(s.q, s.t)
	ham := bits.OnesCount64(s.hw) // z = 0 differs from h wherever h is 1
	var cur uint64
	best := cur
	bestObj := err + s.Mu*float64(ham)
	for k := uint64(1); k < 1<<uint(s.Model.L()); k++ {
		flip := bits.TrailingZeros64(k) // Gray code flips this bit
		cur, err = s.flipTo(cur, flip, err)
		if cur&(1<<uint(flip)) != 0 == (s.hw&(1<<uint(flip)) != 0) {
			ham--
		} else {
			ham++
		}
		if obj := err + s.Mu*float64(ham); obj < bestObj {
			bestObj, best = obj, cur
		}
	}
	return best, bestObj
}

// checkEnumerateOptimal solves x with ZEnumerate and fails unless the chosen
// code's direct objective is within 1e-9·(1+|obj|) of the brute-force
// minimum.
func checkEnumerateOptimal(t *testing.T, m *Model, x []float64, mu float64) {
	t.Helper()
	z := retrieval.NewCodes(1, m.L())
	NewZKernel(m, mu, ZEnumerate).NewSolver().Solve(x, z, 0)
	wantCode, want := BruteForceZ(m, x, mu)
	if got := PointObjective(m, x, z, 0, mu); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("L=%d D=%d mu=%g: enumerated code %#x has objective %v, brute force %#x has %v",
			m.L(), m.D(), mu, z.Word64(0), got, wantCode, want)
	}
}

// FuzzZEnumerate: for any small random model, point and penalty, the
// enumerated code is optimal to 1e-9·(1+|obj|) against BruteForceZ.
func FuzzZEnumerate(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(15), 0.5, 1.0)
	f.Add(int64(2), uint8(0), uint8(0), 0.0, 100.0)
	f.Add(int64(3), uint8(4), uint8(2), 10.0, 0.01)
	f.Fuzz(func(t *testing.T, seed int64, lb, db uint8, mu, scale float64) {
		if !(mu >= 0 && mu <= 1e6) || !(math.Abs(scale) <= 1e6) {
			return
		}
		l, d := 1+int(lb)%10, 1+int(db)%16
		m := randomModel(d, l, seed)
		rng := rand.New(rand.NewSource(seed + 1))
		x := make([]float64, d)
		for j := range x {
			x[j] = scale * rng.NormFloat64()
		}
		checkEnumerateOptimal(t, m, x, mu)
	})
}

// tiedModel builds a BA whose parameters are small integers, so t, G, zᵀGz
// and every objective are exact in float64 and equal objectives tie exactly.
// Encoder 1 and decoder row 1 copy bit 0's, so codes that swap bits 0 and 1
// tie whenever one of them is set; decoder row l−1 is zero, so codes that
// differ only in bit l−1 tie when μ = 0. l >= 3.
func tiedModel(d, l int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	small := func(r int) float64 { return float64(rng.Intn(2*r+1) - r) }
	m := NewModel(d, l, 0)
	for _, e := range m.Enc {
		for j := range e.W {
			e.W[j] = small(2)
		}
		e.B = small(2)
	}
	copy(m.Enc[1].W, m.Enc[0].W)
	m.Enc[1].B = m.Enc[0].B
	for r := 0; r < l-1; r++ {
		for j := range d {
			m.Dec.W.Set(r, j, small(3))
		}
	}
	copy(m.Dec.W.Row(1), m.Dec.W.Row(0))
	for j := range m.Dec.C {
		m.Dec.C[j] = small(2)
	}
	return m
}

// TestZEnumerateTieOrderMatchesGrayWalk pins which of tied codes wins: on a
// model where all arithmetic is exact and ties are frequent, the table walk
// picks bit for bit the code, and reports exactly the objective, of the
// reference Gray walk.
func TestZEnumerateTieOrderMatchesGrayWalk(t *testing.T) {
	const d = 6
	rng := rand.New(rand.NewSource(7))
	tiedMinima := 0
	for _, l := range []int{3, 5, 8, 11, 12} {
		m := tiedModel(d, l, int64(l))
		for _, mu := range []float64{0, 0.5, 2} {
			k := NewZKernel(m, mu, ZEnumerate)
			s, ref := k.NewSolver(), k.NewSolver()
			z := retrieval.NewCodes(1, l)
			for p := 0; p < 8; p++ {
				x := make([]float64, d)
				for j := range x {
					x[j] = float64(rng.Intn(9) - 4)
				}
				s.Solve(x, z, 0)
				wantCode, wantObj := grayWalkZ(ref, x)
				if z.Word64(0) != wantCode || s.lastObj != wantObj {
					t.Fatalf("L=%d mu=%g point %d: table walk %#x (obj %v), Gray walk %#x (obj %v)",
						l, mu, p, z.Word64(0), s.lastObj, wantCode, wantObj)
				}
				if l <= 8 && countMinimisers(m, x, mu) > 1 {
					tiedMinima++
				}
			}
		}
	}
	if tiedMinima == 0 {
		t.Fatal("fixture produced no tied minimum; the tie order went untested")
	}
	t.Logf("%d points with a tied minimum at L <= 8", tiedMinima)
}

// countMinimisers counts the codes attaining the exhaustive minimum exactly.
func countMinimisers(m *Model, x []float64, mu float64) int {
	_, best := BruteForceZ(m, x, mu)
	z := retrieval.NewCodes(1, m.L())
	n := 0
	for code := uint64(0); code < 1<<uint(m.L()); code++ {
		z.SetWord64(0, code)
		if PointObjective(m, x, z, 0, mu) == best {
			n++
		}
	}
	return n
}

// TestZEnumerateAgreesWithGrayWalk runs the table walk and the reference walk
// over a trained model on train_zstep's data shape (byte-backed SIFT-like,
// D=128, L=12) and logs the share of points whose code differs. The two sum
// in different orders, so a code may differ only at a near-tie: both codes'
// direct objectives within 1e-9·(1+|obj|), and at most 1 % of points.
func TestZEnumerateAgreesWithGrayWalk(t *testing.T) {
	const n, d, l = 1000, 128, 12
	ds := dataset.SIFTLike(n, d, 16, 1)
	prob := NewParMACProblem(ds, dataset.ShardIndices(n, 1, nil), ParMACConfig{
		L: l, Mu0: 1e-4, MuFactor: 2, ZMethod: ZEnumerate, Seed: 1,
	})
	eng := core.New(prob, core.Config{P: 1, Epochs: 1, Seed: 1}, prob.Machine)
	defer eng.Shutdown()
	eng.Run(2)
	m, mu := prob.AssembleModel(), prob.Mu()

	k := NewZKernel(m, mu, ZEnumerate)
	s, ref := k.NewSolver(), k.NewSolver()
	z, zRef := retrieval.NewCodes(1, l), retrieval.NewCodes(1, l)
	differ := 0
	for i := 0; i < n; i++ {
		x := ds.Point(i, nil)
		s.Solve(x, z, 0)
		code, _ := grayWalkZ(ref, x)
		if z.Word64(0) == code {
			continue
		}
		differ++
		zRef.SetWord64(0, code)
		got, want := PointObjective(m, x, z, 0, mu), PointObjective(m, x, zRef, 0, mu)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("point %d: code %#x (obj %v) vs Gray walk %#x (obj %v) is not a near-tie",
				i, z.Word64(0), got, code, want)
		}
	}
	t.Logf("codes differing from the Gray walk: %d of %d points (mu=%g)", differ, n, mu)
	if differ*100 > n {
		t.Fatalf("%d of %d codes differ from the Gray walk; want at most 1 %%", differ, n)
	}
}

// TestZEnumerateRejectsLongCodes: enumeration tabulates all 2^L codes, so
// both NewZKernel and NewParMACProblem refuse ZEnumerate above EnumLimit —
// the problem when it is built, not at the first Z step after a whole W step.
func TestZEnumerateRejectsLongCodes(t *testing.T) {
	wantPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "EnumLimit") {
				t.Fatalf("%s with ZEnumerate at L=%d: got panic %q, want the EnumLimit check", what, EnumLimit+1, msg)
			}
		}()
		f()
	}
	wantPanic("NewZKernel", func() { NewZKernel(randomModel(20, EnumLimit+1, 1), 1, ZEnumerate) })
	ds := dataset.GISTLike(20, 128, 2, 13)
	wantPanic("NewParMACProblem", func() {
		NewParMACProblem(ds, dataset.ShardIndices(ds.N, 1, nil), ParMACConfig{L: EnumLimit + 1, ZMethod: ZEnumerate})
	})
	if k := NewZKernel(randomModel(20, EnumLimit, 1), 1, ZEnumerate); len(k.quad) != 1<<EnumLimit {
		t.Fatalf("at L=EnumLimit the zᵀGz table has %d entries, want 2^%d", len(k.quad), EnumLimit)
	}
}

// BenchmarkZStep times the exact Z step per point over train_zstep's data
// shape: a 5 000-point, D=128 byte-backed SIFT-like shard, one point solved
// per op, points taken in turn, through one solver of a kernel built once
// per L. ns/pt is per point solved; run with -cpu 1 to compare commits.
func BenchmarkZStep(b *testing.B) {
	const n, d = 5000, 128
	ds := dataset.SIFTLike(n, d, 16, 1)
	for _, l := range []int{12, 16} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			s := NewZKernel(randomModel(d, l, 1), 1e-3, ZEnumerate).NewSolver()
			z := retrieval.NewCodes(n, l)
			buf := make([]float64, d)
			b.ResetTimer()
			for i := range b.N {
				s.Solve(ds.Point(i%n, buf), z, i%n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pt")
		})
	}
}
