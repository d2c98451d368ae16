// Package vec provides the small dense linear-algebra kernels used by the
// ParMAC reproduction: vectors, row-major matrices, Cholesky solves, a Jacobi
// symmetric eigensolver and a small-matrix SVD. It replaces the GSL/BLAS
// substrate of the original C++ implementation (paper §7) with pure Go.
//
// Everything here is deliberately simple: the factorisations ParMAC needs are
// tiny (L×L for the relaxed Z step, D×D for PCA), so clarity beats blocked
// kernels.
package vec

import (
	"fmt"
	"math"
	"math/rand"
)

// Dot returns the inner product of a and b. The slices must have equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	b = b[:len(a)] // proves len(b) == len(a): eliminates the b[i] bounds check
	// Four accumulators break the serial add dependency chain; this is the
	// innermost kernel of the Z step's W·(x−c) and h(x) products.
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	y = y[:len(x)] // proves len(y) == len(x): eliminates the y[i] bounds check
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// SqNorm returns the squared Euclidean norm of x.
func SqNorm(x []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * x[i]
		s1 += x[i+1] * x[i+1]
		s2 += x[i+2] * x[i+2]
		s3 += x[i+3] * x[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(x); i++ {
		s += x[i] * x[i]
	}
	return s
}

// Norm returns the Euclidean norm of x.
func Norm(x []float64) float64 { return math.Sqrt(SqNorm(x)) }

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: SqDist length mismatch %d vs %d", len(a), len(b)))
	}
	b = b[:len(a)] // proves len(b) == len(a): eliminates the b[i] bounds check
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Clone returns a fresh copy of x.
func Clone(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// Matrix is a dense row-major matrix. Row i occupies
// Data[i*Cols : (i+1)*Cols]. The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("vec: negative matrix dimensions")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col copies column j into dst (allocated if nil) and returns it.
func (m *Matrix) Col(j int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.At(i, j)
	}
	return dst
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes dst = M·x. dst is allocated when nil; it must not alias x.
// Rows are processed in pairs sharing the loads of x, with each row summed in
// exactly Dot's order, so dst[i] is bitwise-identical to Dot(m.Row(i), x).
func (m *Matrix) MulVec(x, dst []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("vec: MulVec needs len(x)=%d, got %d", m.Cols, len(x)))
	}
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	i := 0
	for ; i+2 <= m.Rows; i += 2 {
		r0 := m.Row(i)[:len(x)]
		r1 := m.Row(i + 1)[:len(x)]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		j := 0
		for ; j+4 <= len(x); j += 4 {
			x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3]
			a0 += r0[j] * x0
			a1 += r0[j+1] * x1
			a2 += r0[j+2] * x2
			a3 += r0[j+3] * x3
			b0 += r1[j] * x0
			b1 += r1[j+1] * x1
			b2 += r1[j+2] * x2
			b3 += r1[j+3] * x3
		}
		s0 := (a0 + a1) + (a2 + a3)
		s1 := (b0 + b1) + (b2 + b3)
		for ; j < len(x); j++ {
			s0 += r0[j] * x[j]
			s1 += r1[j] * x[j]
		}
		dst[i], dst[i+1] = s0, s1
	}
	if i < m.Rows {
		dst[i] = Dot(m.Row(i), x)
	}
	return dst
}

// TMulVec computes dst = Mᵀ·x. dst is allocated when nil; it must not alias x.
func (m *Matrix) TMulVec(x, dst []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("vec: TMulVec needs len(x)=%d, got %d", m.Rows, len(x)))
	}
	if dst == nil {
		dst = make([]float64, m.Cols)
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		Axpy(x[i], m.Row(i), dst)
	}
	return dst
}

// Mul computes A·B into a new matrix.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("vec: Mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		cr := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			Axpy(ar[k], b.Row(k), cr)
		}
	}
	return c
}

// TMul computes Aᵀ·B into a new matrix.
func TMul(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("vec: TMul shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Cols, b.Cols)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		br := b.Row(i)
		for k := 0; k < a.Cols; k++ {
			Axpy(ar[k], br, c.Row(k))
		}
	}
	return c
}

// Transpose returns Aᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Gram computes AᵀA (Cols×Cols, symmetric).
func (m *Matrix) Gram() *Matrix { return TMul(m, m) }

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// AddScaledIdentity adds alpha to the diagonal of a square matrix in place.
func (m *Matrix) AddScaledIdentity(alpha float64) {
	if m.Rows != m.Cols {
		panic("vec: AddScaledIdentity on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		m.Add(i, i, alpha)
	}
}

// FillGaussian fills m with N(0, sigma²) samples from rng.
func (m *Matrix) FillGaussian(rng *rand.Rand, sigma float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * sigma
	}
}
