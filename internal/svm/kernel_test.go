package svm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// quantisedRow stores row as one byte-backed point on [lo, hi] and returns
// the stored bytes, the dequantisation table and the dequantised float row.
func quantisedRow(row []uint8, lo, hi float64) ([]uint8, *[256]float64, []float64) {
	ds := dataset.FromBytes(1, len(row), row, lo, hi)
	return ds.ByteRow(0), ds.Dequant(), ds.Point(0, nil)
}

// sameBits reports whether two SVMs have bitwise-equal weights and bias.
func sameBits(a, b *Linear) bool {
	if math.Float64bits(a.B) != math.Float64bits(b.B) || len(a.W) != len(b.W) {
		return false
	}
	for j := range a.W {
		if math.Float64bits(a.W[j]) != math.Float64bits(b.W[j]) {
			return false
		}
	}
	return true
}

// checkKernels applies one update (y, eta) to clones of m through the
// reference Step on the dequantised row, StepFused on it, and StepBytes on
// the stored bytes, and demands bitwise agreement, as well as MarginBytes ==
// Margin before the update. It reports whether the margin was violated.
func checkKernels(t *testing.T, m *Linear, row []uint8, lo, hi, y, eta float64) bool {
	t.Helper()
	b, deq, x := quantisedRow(row, lo, hi)
	if got, want := m.MarginBytes(b, deq), m.Margin(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("D=%d: MarginBytes %v != Margin %v", len(row), got, want)
	}
	ref, fused, bytes := m.Clone(), m.Clone(), m.Clone()
	ref.Step(x, y, eta)
	fused.StepFused(x, y, eta)
	bytes.StepBytes(b, deq, y, eta)
	if !sameBits(fused, ref) {
		t.Fatalf("D=%d: StepFused differs from Step", len(row))
	}
	if !sameBits(bytes, ref) {
		t.Fatalf("D=%d: StepBytes differs from Step", len(row))
	}
	return math.Float64bits(ref.B) != math.Float64bits(m.B)
}

// TestKernelsMatchReference: on random quantised rows of D = 128 (the
// benchmark shape) and D = 7 (a tail past the four-wide loop), StepFused and
// StepBytes reproduce the reference Step and MarginBytes reproduces Margin,
// bit for bit, on updates with the margin violated and not.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{128, 7} {
		outcomes := map[bool]int{}
		for trial := 0; trial < 300; trial++ {
			row := make([]uint8, d)
			for j := range row {
				row[j] = uint8(rng.Intn(256))
			}
			m := NewLinear(d, 1e-3*rng.Float64())
			for j := range m.W {
				m.W[j] = rng.NormFloat64() * 0.1
			}
			m.B = 2 * rng.NormFloat64()
			lo := -rng.Float64()
			hi := lo + 0.5 + 3*rng.Float64()
			y := float64(2*rng.Intn(2) - 1)
			outcomes[checkKernels(t, m, row, lo, hi, y, rng.Float64())]++
			// With λ = 0 the step's sum is Margin's; a bias putting y·margin
			// on 1 makes the update's branch turn on the sum's last bit, so
			// the kernels must also sum in Margin's order.
			m.Lambda = 0
			m.B = 0
			_, _, x := quantisedRow(row, lo, hi)
			m.B = y - m.Margin(x)
			outcomes[checkKernels(t, m, row, lo, hi, y, rng.Float64())]++
		}
		if outcomes[true] == 0 || outcomes[false] == 0 {
			t.Fatalf("D=%d: want violated and satisfied margins, got %v", d, outcomes)
		}
	}
}

// FuzzStepBytes: for any stored bytes, range, weights, η and label, the byte
// kernels agree bit for bit with the float kernels on the dequantised row.
func FuzzStepBytes(f *testing.F) {
	f.Add([]byte{0, 1, 2, 255, 128, 7, 9}, -1.5, 2.0, 0.25, 0.5, 1e-3, true, int64(1))
	f.Add(make([]byte, 128), 0.0, 1.0, 1.0, -3.0, 0.0, false, int64(2))
	f.Fuzz(func(t *testing.T, row []byte, lo, hi, eta, bias, lambda float64, pos bool, seed int64) {
		for _, v := range []float64{lo, hi, eta, bias, lambda} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if len(row) == 0 || len(row) > 1024 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		m := NewLinear(len(row), lambda)
		for j := range m.W {
			m.W[j] = rng.NormFloat64()
		}
		m.B = bias
		y := -1.0
		if pos {
			y = 1
		}
		checkKernels(t, m, row, lo, hi, y, eta)
	})
}
