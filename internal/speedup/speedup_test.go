package speedup

import (
	"math"
	"testing"
	"testing/quick"
)

// fig4Params are the realistic settings of Fig. 4.
func fig4Params() Params {
	return Params{N: 1e6, M: 512, E: 1, TWr: 1, TZr: 5, TWc: 1e3}
}

func TestRhoValuesMatchFig4Caption(t *testing.T) {
	p := fig4Params()
	// Fig. 4 caption: ρ1 = 0.0025, ρ2 = 0.0005, ρ = 0.003.
	if math.Abs(p.Rho1()-0.0025) > 1e-12 {
		t.Fatalf("rho1 = %v", p.Rho1())
	}
	if math.Abs(p.Rho2()-0.0005) > 1e-12 {
		t.Fatalf("rho2 = %v", p.Rho2())
	}
	if math.Abs(p.Rho()-0.003) > 1e-12 {
		t.Fatalf("rho = %v", p.Rho())
	}
}

func TestSpeedupAtOneIsOne(t *testing.T) {
	if s := fig4Params().Speedup(1); s != 1 {
		t.Fatalf("S(1) = %v", s)
	}
}

// DivisibleSpeedup is eq. (14): S(P) = P/(1 + P/(ρN)), valid when M is
// divisible by P.
func (p Params) DivisibleSpeedup(P int) float64 {
	pf := float64(P)
	return pf / (1 + pf/(p.Rho()*float64(p.N)))
}

func TestDivisibleCaseMatchesClosedForm(t *testing.T) {
	p := fig4Params()
	for _, P := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512} {
		got := p.Speedup(float64(P))
		want := p.DivisibleSpeedup(P)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("P=%d: S=%v, closed form %v", P, got, want)
		}
		if got > float64(P) {
			t.Fatalf("P=%d: S=%v exceeds perfect speedup", P, got)
		}
	}
}

func TestNearPerfectSpeedupForSmallP(t *testing.T) {
	// Eq. (15): S ≈ P when P ≪ ρN = 3000 here.
	p := fig4Params()
	if p.PerfectSpeedupBound() != 3000 {
		t.Fatalf("rhoN = %v", p.PerfectSpeedupBound())
	}
	s := p.Speedup(64)
	if s < 62 {
		t.Fatalf("S(64) = %v, want ≈64", s)
	}
}

func TestTheoremA1BreakpointDominance(t *testing.T) {
	// Theorem A.1 part 3: S(M/k) > S(P) for all P < M/k.
	p := Params{N: 50000, M: 64, E: 1, TWr: 1, TZr: 10, TWc: 100}
	for _, k := range []int{1, 2, 4, 8, 16} {
		breakpoint := float64(p.M) / float64(k)
		sb := p.Speedup(breakpoint)
		for q := 1.0; q < breakpoint-1e-9; q += breakpoint / 37 {
			if s := p.Speedup(q); s >= sb {
				t.Fatalf("k=%d: S(%v)=%v >= S(M/k=%v)=%v", k, q, s, breakpoint, sb)
			}
		}
	}
}

func TestGlobalMaxDominatesGrid(t *testing.T) {
	// The closed-form global maximum must match a dense numeric search.
	cases := []Params{
		{N: 50000, M: 32, E: 1, TWr: 1, TZr: 100, TWc: 100},
		{N: 1e6, M: 512, E: 1, TWr: 1, TZr: 5, TWc: 1e3},
		{N: 50000, M: 8, E: 8, TWr: 1, TZr: 1, TWc: 1000},
	}
	for ci, p := range cases {
		pStar, sStar := p.GlobalMax()
		// Numeric grid search over [1, 4·P*].
		var sBest, pBest float64
		hi := 4 * pStar
		if hi < float64(p.M)*2 {
			hi = float64(p.M) * 2
		}
		for q := 1.0; q <= hi; q += hi / 200000 {
			if s := p.Speedup(q); s > sBest {
				sBest, pBest = s, q
			}
		}
		if math.Abs(sBest-sStar) > 1e-3*sStar {
			t.Fatalf("case %d: closed-form S*=%v at P=%v, grid found %v at %v", ci, sStar, pStar, sBest, pBest)
		}
	}
}

func TestMaxBiggerThanMWhenMLessThanRho1N(t *testing.T) {
	// Appendix A.2: if M < ρ1·N the maximum exceeds M and occurs past M.
	p := fig4Params() // M=512 < ρ1·N = 2500
	pStar, sStar := p.GlobalMax()
	if pStar <= float64(p.M) || sStar <= float64(p.M) {
		t.Fatalf("P*=%v S*=%v should both exceed M=%d", pStar, sStar, p.M)
	}
}

func TestMaxAtMWhenMGreaterThanRho1N(t *testing.T) {
	// Small dataset, many submodels: M ≥ ρ1·N → S* ≤ M at P = M.
	p := Params{N: 1000, M: 512, E: 1, TWr: 1, TZr: 1, TWc: 100}
	if float64(p.M) < p.Rho1()*float64(p.N) {
		t.Skip("parameters do not satisfy the case")
	}
	pStar, sStar := p.GlobalMax()
	if pStar != float64(p.M) {
		t.Fatalf("P* = %v, want M", pStar)
	}
	if sStar > float64(p.M) {
		t.Fatalf("S* = %v should be ≤ M", sStar)
	}
}

func TestSpeedupDecaysForHugeP(t *testing.T) {
	// Past the maximum, communication dominates and S(P) → 0 (§5.2).
	p := Params{N: 50000, M: 16, E: 1, TWr: 1, TZr: 1, TWc: 1000}
	_, sStar := p.GlobalMax()
	far := p.Speedup(1e6)
	if far > sStar/10 {
		t.Fatalf("S at huge P = %v, should collapse below %v", far, sStar/10)
	}
}

// LargeDataset returns the P ≪ ρ2·N approximation of eq. (20):
// S(P) ≈ P when M is divisible by P, and the weighted harmonic mean
// ρ/(ρ1/P + ρ2/M) when M > P.
func (p Params) LargeDataset(P int) float64 {
	m := float64(p.M)
	pf := float64(P)
	if P <= p.M && p.M%P == 0 {
		return pf
	}
	return p.Rho() / (p.Rho1()/pf + p.Rho2()/m)
}

func TestLargeDatasetApproximation(t *testing.T) {
	p := Params{N: 1e8, M: 128, E: 1, TWr: 1, TZr: 40, TWc: 1e4}
	// Divisible P: approximation P, exact close to it.
	for _, P := range []int{2, 8, 32, 128} {
		if got := p.LargeDataset(P); got != float64(P) {
			t.Fatalf("LargeDataset(%d) = %v", P, got)
		}
		exact := p.Speedup(float64(P))
		if math.Abs(exact-float64(P)) > 0.05*float64(P) {
			t.Fatalf("exact S(%d)=%v deviates from approx", P, exact)
		}
	}
	// P > M: harmonic-mean form lies between M and P.
	s := p.LargeDataset(512)
	if s < float64(p.M) || s > 512 {
		t.Fatalf("harmonic-mean speedup %v outside [M, P]", s)
	}
}

// Intervals returns the continuity breakpoints M/k (k = M..1) of S(P) from
// appendix A: S is continuous on [M/k, M/(k−1)).
func (p Params) Intervals() []float64 {
	out := make([]float64, 0, p.M)
	for k := p.M; k >= 1; k-- {
		out = append(out, float64(p.M)/float64(k))
	}
	return out
}

func TestIntervalsStructure(t *testing.T) {
	p := Params{N: 1000, M: 8, E: 1, TWr: 1, TZr: 1, TWc: 1}
	iv := p.Intervals()
	if len(iv) != 8 {
		t.Fatalf("intervals = %v", iv)
	}
	if iv[0] != 1 || iv[len(iv)-1] != 8 {
		t.Fatalf("interval endpoints wrong: %v", iv)
	}
	for i := 1; i < len(iv); i++ {
		if iv[i] <= iv[i-1] {
			t.Fatalf("intervals not increasing: %v", iv)
		}
	}
}

func TestEffectiveSubmodels(t *testing.T) {
	// §5.4: BA with L bits has M = 2L effective submodels.
	if EffectiveSubmodels(16) != 32 || EffectiveSubmodels(64) != 128 {
		t.Fatal("effective submodel count wrong")
	}
}

// scaleInvariant reports whether two parameter settings produce identical
// speedup curves, using the invariance transformations of §5.2: S depends on
// the inputs only through ρ'1 = ρ1·N and ρ'2 = ρ2·N (eq. 21–22) and M.
func scaleInvariant(a, b Params, tol float64) bool {
	if a.M != b.M {
		return false
	}
	r1a, r1b := a.Rho1()*float64(a.N), b.Rho1()*float64(b.N)
	r2a, r2b := a.Rho2()*float64(a.N), b.Rho2()*float64(b.N)
	close := func(x, y float64) bool {
		return math.Abs(x-y) <= tol*(1+math.Abs(x)+math.Abs(y))
	}
	return close(r1a, r1b) && close(r2a, r2b)
}

func TestScaleInvarianceTransforms(t *testing.T) {
	// §5.2: the three transformations that keep ρ'1, ρ'2 fixed leave S
	// unchanged.
	base := Params{N: 50000, M: 32, E: 2, TWr: 1, TZr: 10, TWc: 100}
	alpha := 4.0
	cases := []Params{
		// larger dataset, faster computation
		{N: int(float64(base.N) * alpha), M: 32, E: 2, TWr: base.TWr / alpha, TZr: base.TZr / alpha, TWc: base.TWc},
		// larger dataset, slower communication
		{N: int(float64(base.N) * alpha), M: 32, E: 2, TWr: base.TWr, TZr: base.TZr, TWc: base.TWc * alpha},
		// faster computation, faster communication
		{N: base.N, M: 32, E: 2, TWr: base.TWr * alpha, TZr: base.TZr * alpha, TWc: base.TWc * alpha},
	}
	for ci, c := range cases {
		if !scaleInvariant(base, c, 1e-9) {
			t.Fatalf("case %d: should be scale invariant", ci)
		}
		for _, P := range []float64{2, 7, 16, 33, 100} {
			a, b := base.Speedup(P), c.Speedup(P)
			if math.Abs(a-b) > 1e-6*(1+a) {
				t.Fatalf("case %d P=%v: S %v vs %v", ci, P, a, b)
			}
		}
	}
	// A genuinely different setting is not invariant.
	diff := Params{N: base.N, M: 32, E: 2, TWr: 5, TZr: 10, TWc: 100}
	if scaleInvariant(base, diff, 1e-9) {
		t.Fatal("different TWr should break invariance")
	}
}

func TestQuickSpeedupBounds(t *testing.T) {
	// Property: 0 < S(P) ≤ P for all valid parameters (no superlinear
	// speedup in the model).
	f := func(nRaw uint32, mRaw, eRaw uint8, twr, tzr, twc uint16, pRaw uint16) bool {
		p := Params{
			N:   int(nRaw)%1000000 + 100,
			M:   int(mRaw)%256 + 1,
			E:   int(eRaw)%8 + 1,
			TWr: float64(twr%100) + 0.1,
			TZr: float64(tzr%100) + 0.1,
			TWc: float64(twc%1000) + 0.1,
		}
		P := float64(pRaw%2000) + 1
		s := p.Speedup(P)
		return s > 0 && s <= P+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTMonotoneInN(t *testing.T) {
	// Property: more data never makes an iteration faster.
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw)%10000 + 10
		P := float64(int(pRaw)%64 + 1)
		a := Params{N: n, M: 32, E: 1, TWr: 1, TZr: 5, TWc: 100}
		b := a
		b.N = n * 2
		return b.T(P) >= a.T(P)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
