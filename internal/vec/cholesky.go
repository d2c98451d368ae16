package vec

import (
	"errors"
	"math"
)

// ErrNotPD reports that a matrix passed to Cholesky was not (numerically)
// positive definite.
var ErrNotPD = errors.New("vec: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ and can solve linear systems A·x = b.
type Cholesky struct {
	n  int
	l  *Matrix // lower triangular, including diagonal
	lt *Matrix // Lᵀ: row i holds column i of L, so back-substitution reads rows
}

// NewCholesky factors the symmetric positive definite matrix a. Only the
// lower triangle of a is read. It returns ErrNotPD when a pivot is not
// positive.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic("vec: Cholesky of non-square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotPD
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return &Cholesky{n: n, l: l, lt: l.Transpose()}, nil
}

// Solve computes x such that A·x = b, writing into dst (allocated when nil).
// b and dst may alias.
func (c *Cholesky) Solve(b, dst []float64) []float64 {
	if len(b) != c.n {
		panic("vec: Cholesky.Solve dimension mismatch")
	}
	if dst == nil {
		dst = make([]float64, c.n)
	}
	// Forward substitution: L·y = b. Row i of L is contiguous, so the inner
	// reduction is a Dot over slices instead of indexed At calls.
	for i := 0; i < c.n; i++ {
		row := c.l.Row(i)
		dst[i] = (b[i] - Dot(row[:i], dst[:i])) / row[i]
	}
	// Back substitution: Lᵀ·x = y, reading rows of the stored transpose.
	for i := c.n - 1; i >= 0; i-- {
		row := c.lt.Row(i)
		dst[i] = (dst[i] - Dot(row[i+1:], dst[i+1:])) / row[i]
	}
	return dst
}
