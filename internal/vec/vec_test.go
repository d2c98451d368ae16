package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// maxAbsDiff returns max |a_ij - b_ij| over matrices of one shape, or +Inf
// when any difference is NaN, so a tolerance check cannot pass on NaN.
func maxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("vec: maxAbsDiff shape mismatch")
	}
	var m float64
	for i, v := range a.Data {
		d := math.Abs(v - b.Data[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		m = max(m, d)
	}
	return m
}

func TestMaxAbsDiffFailsOnNaN(t *testing.T) {
	a, b := NewMatrix(1, 2), NewMatrix(1, 2)
	if d := maxAbsDiff(a, b); d != 0 {
		t.Fatalf("equal matrices: %v", d)
	}
	b.Set(0, 1, -0.5)
	if d := maxAbsDiff(a, b); d != 0.5 {
		t.Fatalf("maxAbsDiff = %v, want 0.5", d)
	}
	a.Set(0, 0, math.NaN())
	if d := maxAbsDiff(a, b); d <= 1e-12 {
		t.Fatalf("NaN entry gave %v, which passes a tolerance check", d)
	}
}

func TestDotAxpyScale(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, -5, 6}
	if got := Dot(a, b); got != 4-10+18 {
		t.Fatalf("Dot = %v, want 12", got)
	}
	y := Clone(b)
	Axpy(2, a, y)
	want := []float64{6, -1, 12}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	Scale(0.5, y)
	if y[0] != 3 || y[1] != -0.5 || y[2] != 6 {
		t.Fatalf("Scale result %v", y)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, 4}
	if SqNorm(x) != 25 || Norm(x) != 5 {
		t.Fatalf("SqNorm/Norm wrong: %v %v", SqNorm(x), Norm(x))
	}
	if SqDist([]float64{1, 1}, []float64{4, 5}) != 25 {
		t.Fatal("SqDist wrong")
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Set(1, 1, 3)
	if m.At(0, 2) != 2 || m.At(1, 1) != 3 {
		t.Fatal("At/Set broken")
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must alias storage")
	}
	c := m.Col(0, nil)
	if c[0] != 1 || c[1] != 9 {
		t.Fatalf("Col = %v", c)
	}
	cl := m.Clone()
	cl.Set(0, 0, 100)
	if m.At(0, 0) == 100 {
		t.Fatal("Clone must not alias")
	}
}

func TestMulVecAndTMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := m.MulVec([]float64{1, 1, 1}, nil)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
	z := m.TMulVec([]float64{1, 2}, nil)
	want := []float64{9, 12, 15}
	for i := range want {
		if z[i] != want[i] {
			t.Fatalf("TMulVec = %v", z)
		}
	}
}

func TestMulAgainstTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(4, 3)
	b := NewMatrix(4, 5)
	a.FillGaussian(rng, 1)
	b.FillGaussian(rng, 1)
	// TMul(a,b) must equal Mul(aᵀ, b).
	got := TMul(a, b)
	want := Mul(a.Transpose(), b)
	if maxAbsDiff(got, want) > 1e-12 {
		t.Fatal("TMul disagrees with explicit transpose multiply")
	}
}

func TestIdentityAndAddScaledIdentity(t *testing.T) {
	id := Identity(3)
	m := NewMatrix(3, 3)
	m.FillGaussian(rand.New(rand.NewSource(2)), 1)
	prod := Mul(id, m)
	if maxAbsDiff(prod, m) != 0 {
		t.Fatal("I·M != M")
	}
	m2 := m.Clone()
	m2.AddScaledIdentity(1.5)
	for i := 0; i < 3; i++ {
		if !almostEq(m2.At(i, i), m.At(i, i)+1.5, 1e-15) {
			t.Fatal("AddScaledIdentity wrong")
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		g := NewMatrix(n+3, n)
		g.FillGaussian(rng, 1)
		a := g.Gram()
		a.AddScaledIdentity(0.5) // ensure PD
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue, nil)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x := ch.Solve(b, nil)
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-8) {
				t.Fatalf("trial %d: x[%d]=%v want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotPD {
		t.Fatalf("want ErrNotPD, got %v", err)
	}
}

func TestEigSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(10)
		g := NewMatrix(n+2, n)
		g.FillGaussian(rng, 1)
		a := g.Gram()
		vals, vecs := EigSym(a)
		// Check descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-10 {
				t.Fatalf("eigenvalues not descending: %v", vals)
			}
		}
		// Check A·v = λ·v per pair.
		for j := 0; j < n; j++ {
			v := vecs.Col(j, nil)
			av := a.MulVec(v, nil)
			for i := 0; i < n; i++ {
				if !almostEq(av[i], vals[j]*v[i], 1e-7*(1+math.Abs(vals[0]))) {
					t.Fatalf("trial %d eigenpair %d violated: %v vs %v", trial, j, av[i], vals[j]*v[i])
				}
			}
		}
		// Check orthonormality VᵀV = I.
		vtv := vecs.Gram()
		if maxAbsDiff(vtv, Identity(n)) > 1e-9 {
			t.Fatal("eigenvectors not orthonormal")
		}
	}
}

func TestSVDThinReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		rows := 5 + rng.Intn(8)
		cols := 2 + rng.Intn(4)
		a := NewMatrix(rows, cols)
		a.FillGaussian(rng, 1)
		u, s, v := SVDThin(a)
		// Reconstruct U·diag(s)·Vᵀ.
		us := u.Clone()
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				us.Set(i, j, us.At(i, j)*s[j])
			}
		}
		rec := Mul(us, v.Transpose())
		if maxAbsDiff(rec, a) > 1e-8 {
			t.Fatalf("trial %d: SVD reconstruction error %v", trial, maxAbsDiff(rec, a))
		}
		for i := 1; i < len(s); i++ {
			if s[i] > s[i-1]+1e-10 {
				t.Fatalf("singular values not descending: %v", s)
			}
		}
	}
}

func TestProcrustesIsOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewMatrix(20, 4)
	b := NewMatrix(20, 4)
	a.FillGaussian(rng, 1)
	b.FillGaussian(rng, 1)
	r := Procrustes(a, b)
	if maxAbsDiff(r.Gram(), Identity(4)) > 1e-8 {
		t.Fatal("Procrustes result not orthogonal")
	}
}

func TestProcrustesRecoversRotation(t *testing.T) {
	// If A = B·R0 exactly, Procrustes must recover R0.
	rng := rand.New(rand.NewSource(8))
	b := NewMatrix(30, 3)
	b.FillGaussian(rng, 1)
	g := NewMatrix(6, 3)
	g.FillGaussian(rng, 1)
	_, _, r0 := SVDThin(g) // an orthogonal 3×3
	a := Mul(b, r0)
	r := Procrustes(a, b)
	if maxAbsDiff(r, r0) > 1e-8 {
		t.Fatalf("rotation not recovered, diff %v", maxAbsDiff(r, r0))
	}
}

// Property: ‖x‖² is invariant to applying an orthogonal matrix.
func TestQuickOrthogonalNormInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := NewMatrix(8, 5)
	g.FillGaussian(rng, 1)
	_, _, v := SVDThin(g) // orthogonal 5×5
	f := func(raw [5]float64) bool {
		x := raw[:]
		for i := range x {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.Abs(x[i]) > 1e6 {
				x[i] = 1
			}
		}
		y := v.MulVec(x, nil)
		return almostEq(SqNorm(y), SqNorm(x), 1e-6*(1+SqNorm(x)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and bilinear in its first argument.
func TestQuickDotBilinear(t *testing.T) {
	sanitize := func(x *[6]float64) {
		for i := range x {
			if math.IsNaN(x[i]) || math.Abs(x[i]) > 1e6 {
				x[i] = math.Mod(x[i], 1e3)
				if math.IsNaN(x[i]) {
					x[i] = 0
				}
			}
		}
	}
	f := func(a, b, c [6]float64, alpha int8) bool {
		sanitize(&a)
		sanitize(&b)
		sanitize(&c)
		al := float64(alpha)
		ax := make([]float64, 6)
		for i := range ax {
			ax[i] = al*a[i] + b[i]
		}
		lhs := Dot(ax, c[:])
		rhs := al*Dot(a[:], c[:]) + Dot(b[:], c[:])
		scale := 1 + math.Abs(lhs) + math.Abs(rhs)
		return almostEq(lhs, rhs, 1e-9*scale) || math.IsNaN(lhs) == math.IsNaN(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(64, 320)
	m.FillGaussian(rng, 1)
	x := make([]float64, 320)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make([]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, dst)
	}
}

func BenchmarkCholesky16(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := NewMatrix(32, 16)
	g.FillGaussian(rng, 1)
	a := g.Gram()
	a.AddScaledIdentity(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMulVecMatchesDotBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, shape := range []struct{ r, c int }{{1, 5}, {2, 8}, {7, 13}, {32, 128}, {33, 127}} {
		m := NewMatrix(shape.r, shape.c)
		m.FillGaussian(rng, 1)
		x := make([]float64, shape.c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := m.MulVec(x, nil)
		for i := 0; i < shape.r; i++ {
			if want := Dot(m.Row(i), x); got[i] != want {
				t.Fatalf("%dx%d row %d: MulVec %v != Dot %v (must be bitwise equal)", shape.r, shape.c, i, got[i], want)
			}
		}
	}
}
