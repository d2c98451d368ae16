// Package svm implements the hash-function submodels of the binary
// autoencoder: linear SVMs trained by SGD on the hinge loss (the per-bit
// encoder submodels of §3.1) and the RBF-network kernel expansion used for
// the nonlinear hash function of §8.4. Training follows Bottou's SGD with the
// η0 auto-calibration pass the paper describes in §8.1.
package svm

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/sgd"
	"repro/internal/vec"
)

// Linear is a linear SVM y = sign(w·x + b) with L2 regularisation λ/2·‖w‖².
// It carries its own SGD schedule so a circulating ParMAC submodel continues
// its learning-rate decay across machines.
type Linear struct {
	W      []float64
	B      float64
	Lambda float64
	Sched  *sgd.Schedule
}

// NewLinear creates a zero-initialised SVM for d-dimensional inputs.
func NewLinear(d int, lambda float64) *Linear {
	return &Linear{W: make([]float64, d), Lambda: lambda, Sched: sgd.NewSchedule(1e-2, lambda)}
}

// Margin returns w·x + b.
func (m *Linear) Margin(x []float64) float64 { return vec.Dot(m.W, x) + m.B }

// Predict returns the binary decision Margin(x) >= 0, the bit convention of
// the BA encoder h(x) = step(Ax).
func (m *Linear) Predict(x []float64) bool { return m.Margin(x) >= 0 }

// Clone returns a deep copy (including schedule state), used for the
// redundant per-machine submodel copies that ParMAC's fault tolerance relies
// on (§4.3).
func (m *Linear) Clone() *Linear {
	c := &Linear{W: vec.Clone(m.W), B: m.B, Lambda: m.Lambda}
	s := *m.Sched
	c.Sched = &s
	return c
}

// Bytes returns the serialised parameter size, used by the communication
// accounting (t_c^W is per-submodel in §5.1).
func (m *Linear) Bytes() int { return 8 * (len(m.W) + 1) }

// StepFused performs one SGD update with learning rate eta on sample (x, y),
// y ∈ {-1,+1}: regularise w, and add η·y·x when the margin is violated. The
// regularisation scaling and the margin dot product fuse into one walk over
// w (each product reads the just-scaled, just-rounded weight, and the partial
// sums follow vec.Dot's four-accumulator order), so only a violated margin
// pays a second pass for the Axpy: bit for bit the scale-then-Margin update
// (the reference Step lives in the tests). This is the inner statement of an
// encoder visit over float rows.
func (m *Linear) StepFused(x []float64, y, eta float64) {
	w := m.W
	if len(x) != len(w) {
		panic(fmt.Sprintf("svm: StepFused length mismatch %d vs %d", len(x), len(w)))
	}
	x = x[:len(w)] // proves len(x) == len(w): eliminates the x[i] bounds check
	c := 1 - eta*m.Lambda
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(w); i += 4 {
		w0 := w[i] * c
		w1 := w[i+1] * c
		w2 := w[i+2] * c
		w3 := w[i+3] * c
		w[i], w[i+1], w[i+2], w[i+3] = w0, w1, w2, w3
		s0 += w0 * x[i]
		s1 += w1 * x[i+1]
		s2 += w2 * x[i+2]
		s3 += w3 * x[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(w); i++ {
		w[i] *= c
		s += w[i] * x[i]
	}
	if y*(s+m.B) < 1 {
		vec.Axpy(eta*y, x, w)
		m.B += eta * y
	}
}

// StepBytes is StepFused on a quantised row, bit for bit: feature j is
// deq[x[j]], looked up where StepFused reads x[j], so no float row is built.
// The scaling, the four-accumulator sums and the Axpy are StepFused's.
func (m *Linear) StepBytes(x []uint8, deq *[256]float64, y, eta float64) {
	w := m.W
	if len(x) != len(w) {
		panic(fmt.Sprintf("svm: StepBytes length mismatch %d vs %d", len(x), len(w)))
	}
	x = x[:len(w)]
	c := 1 - eta*m.Lambda
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(w); i += 4 {
		w0 := w[i] * c
		w1 := w[i+1] * c
		w2 := w[i+2] * c
		w3 := w[i+3] * c
		w[i], w[i+1], w[i+2], w[i+3] = w0, w1, w2, w3
		s0 += w0 * deq[x[i]]
		s1 += w1 * deq[x[i+1]]
		s2 += w2 * deq[x[i+2]]
		s3 += w3 * deq[x[i+3]]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(w); i++ {
		w[i] *= c
		s += w[i] * deq[x[i]]
	}
	if y*(s+m.B) < 1 {
		a := eta * y
		for i, b := range x {
			w[i] += a * deq[b]
		}
		m.B += eta * y
	}
}

// MarginBytes is Margin on a quantised row, bit for bit: vec.Dot's
// four-accumulator sum with feature j read as deq[x[j]].
func (m *Linear) MarginBytes(x []uint8, deq *[256]float64) float64 {
	w := m.W
	if len(x) != len(w) {
		panic(fmt.Sprintf("svm: MarginBytes length mismatch %d vs %d", len(x), len(w)))
	}
	x = x[:len(w)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(w); i += 4 {
		s0 += w[i] * deq[x[i]]
		s1 += w[i+1] * deq[x[i+1]]
		s2 += w[i+2] * deq[x[i+2]]
		s3 += w[i+3] * deq[x[i+3]]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(w); i++ {
		s += w[i] * deq[x[i]]
	}
	return s + m.B
}

// Samples is a ±1-labelled training set as the SGD passes read it. An
// implementation reads its rows in place with the kernels matching its
// storage — StepFused and Margin on float rows, StepBytes and MarginBytes on
// quantised ones — and picks them once per call, so AutoTune is one body
// whatever the storage.
type Samples interface {
	NumPoints() int
	// Pass applies one StepFused-equivalent update per sample of order, in
	// order, with η from m.Sched.
	Pass(m *Linear, order []int)
	// Hinge returns Σ max(0, 1 − y·Margin(x)) over idx, summed in idx order.
	Hinge(m *Linear, idx []int) float64
}

// AvgLoss returns the mean regularised hinge loss over the samples listed in
// idx.
func (m *Linear) AvgLoss(s Samples, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	return s.Hinge(m, idx)/float64(len(idx)) + 0.5*m.Lambda*vec.SqNorm(m.W)
}

// AutoTune calibrates the schedule's η0 over 1e-4·4ᵏ ≤ 16 by trial passes
// over the first min(n,1000) samples (paper §8.1), leaving the model
// parameters untouched.
func (m *Linear) AutoTune(s Samples) {
	n := sgd.TuningSampleSize(s.NumPoints())
	if n == 0 {
		return
	}
	sample := sgd.Order(n, false, nil)
	best := sgd.TuneEta0(1e-4, 16, 4, func(eta0 float64) float64 {
		trial := m.Clone()
		trial.Sched = sgd.NewSchedule(eta0, m.Lambda)
		s.Pass(trial, sample)
		return trial.AvgLoss(s, sample)
	})
	m.Sched.Eta0 = best
	m.Sched.Lambda = m.Lambda
	m.Sched.SetSteps(0)
}

// KernelMap is the fixed RBF feature expansion of §8.4: m Gaussian radial
// basis functions with shared bandwidth σ and fixed centres; applying it
// turns a kernel SVM into a linear SVM over kernel values. Values lie in
// (0,1] and, as in the paper, can be stored one byte each.
type KernelMap struct {
	Centres *vec.Matrix // m×D
	Sigma   float64
}

// RandomCentres picks m centres at random from ds (paper: "picked at random
// from the training set").
func RandomCentres(ds *dataset.Dataset, m int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	c := vec.NewMatrix(m, ds.D)
	for k := 0; k < m; k++ {
		ds.Point(rng.Intn(ds.N), c.Row(k))
	}
	return c
}

// MedianSigma estimates a bandwidth as the median pairwise distance over a
// random sample, the standard heuristic replacing the paper's offline trial
// runs (they fixed σ=160 for raw SIFT bytes).
func MedianSigma(ds *dataset.Dataset, sample int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	if sample > ds.N {
		sample = ds.N
	}
	if sample < 2 {
		return 1
	}
	var dists []float64
	a := make([]float64, ds.D)
	b := make([]float64, ds.D)
	for t := 0; t < sample; t++ {
		i, j := rng.Intn(ds.N), rng.Intn(ds.N)
		if i == j {
			continue
		}
		da := ds.Point(i, a)
		db := ds.Point(j, b)
		dists = append(dists, math.Sqrt(vec.SqDist(da, db)))
	}
	if len(dists) == 0 {
		return 1
	}
	// Median by partial selection.
	for i := 0; i < len(dists); i++ {
		for j := i + 1; j < len(dists); j++ {
			if dists[j] < dists[i] {
				dists[i], dists[j] = dists[j], dists[i]
			}
		}
	}
	s := dists[len(dists)/2]
	if s <= 0 {
		return 1
	}
	return s
}

// NewKernelMap builds an RBF map with m random centres and median-heuristic
// bandwidth.
func NewKernelMap(ds *dataset.Dataset, m int, seed int64) *KernelMap {
	return &KernelMap{Centres: RandomCentres(ds, m, seed), Sigma: MedianSigma(ds, 256, seed+1)}
}

// Apply writes the kernel feature vector of x into dst (allocated when nil):
// dst[k] = exp(-‖x-c_k‖² / (2σ²)).
func (k *KernelMap) Apply(x, dst []float64) []float64 {
	m := k.Centres.Rows
	if dst == nil {
		dst = make([]float64, m)
	}
	inv := 1 / (2 * k.Sigma * k.Sigma)
	for j := 0; j < m; j++ {
		dst[j] = math.Exp(-vec.SqDist(x, k.Centres.Row(j)) * inv)
	}
	return dst
}

// Transform maps a whole dataset through the kernel expansion and stores the
// features one byte each in [0,1], exactly the paper's memory-saving
// representation (§8.4).
func (k *KernelMap) Transform(ds *dataset.Dataset) *dataset.Dataset {
	out := vec.NewMatrix(ds.N, k.Centres.Rows)
	buf := make([]float64, ds.D)
	for i := 0; i < ds.N; i++ {
		k.Apply(ds.Point(i, buf), out.Row(i))
	}
	// Kernel values live in (0,1]; quantising against that fixed range keeps
	// base and query sets on one grid.
	return dataset.FromMatrix(out).QuantizeRange(0, 1)
}
