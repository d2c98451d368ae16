package svm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sgd"
	"repro/internal/vec"
)

// separable builds a linearly separable two-cluster problem and its labels.
func separable(n, d int, seed int64) (*dataset.Dataset, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := vec.NewMatrix(n, d)
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		y := 1.0
		if i%2 == 0 {
			y = -1
		}
		labels[i] = y
		row := x.Row(i)
		for j := 0; j < d; j++ {
			row[j] = rng.NormFloat64() * 0.3
		}
		row[0] += 2 * y // separation along the first axis
	}
	return dataset.FromMatrix(x), labels
}

// Step is the reference SGD update on sample (x, y), y ∈ {-1,+1}: regularise
// w, then add η·y·x when the margin is violated. StepFused and StepBytes must
// reproduce it bit for bit.
func (m *Linear) Step(x []float64, y, eta float64) {
	vec.Scale(1-eta*m.Lambda, m.W)
	if y*m.Margin(x) < 1 {
		vec.Axpy(eta*y, x, m.W)
		m.B += eta * y
	}
}

// pointSamples is the reference Samples: Point copies of pts with ±1 labels,
// trained by Step and scored by Margin.
type pointSamples struct {
	pts    sgd.Points
	labels []float64
}

func (s pointSamples) NumPoints() int { return s.pts.NumPoints() }

func (s pointSamples) Pass(m *Linear, order []int) {
	buf := make([]float64, len(m.W))
	for _, i := range order {
		m.Step(s.pts.Point(i, buf), s.labels[i], m.Sched.Next())
	}
}

func (s pointSamples) Hinge(m *Linear, idx []int) float64 {
	buf := make([]float64, len(m.W))
	var loss float64
	for _, i := range idx {
		if h := 1 - s.labels[i]*m.Margin(s.pts.Point(i, buf)); h > 0 {
			loss += h
		}
	}
	return loss
}

// accuracy is the share of points whose sign m predicts correctly.
func (s pointSamples) accuracy(m *Linear) float64 {
	buf := make([]float64, len(m.W))
	correct := 0
	for i, y := range s.labels {
		if (m.Margin(s.pts.Point(i, buf)) >= 0) == (y > 0) {
			correct++
		}
	}
	return float64(correct) / float64(len(s.labels))
}

func TestLinearLearnsSeparableData(t *testing.T) {
	ds, labels := separable(400, 5, 1)
	s := pointSamples{ds, labels}
	m := NewLinear(5, 1e-4)
	m.AutoTune(s)
	rng := rand.New(rand.NewSource(2))
	for epoch := 0; epoch < 5; epoch++ {
		s.Pass(m, sgd.Order(ds.N, true, rng))
	}
	if acc := s.accuracy(m); acc < 0.98 {
		t.Fatalf("accuracy = %v, want >= 0.98", acc)
	}
}

func TestStepRegularisesAlways(t *testing.T) {
	m := NewLinear(2, 0.5)
	m.W[0] = 1
	// Large margin: no hinge update, but the regulariser must still shrink w.
	m.Step([]float64{10, 0}, 1, 0.1)
	if m.W[0] != 1*(1-0.1*0.5) {
		t.Fatalf("W after regularised step = %v", m.W[0])
	}
	if m.B != 0 {
		t.Fatal("bias must not change without a margin violation")
	}
}

func TestStepHingeUpdate(t *testing.T) {
	m := NewLinear(1, 0)
	m.Step([]float64{2}, 1, 0.5) // margin 0 < 1 → violation
	if m.W[0] != 1 || m.B != 0.5 {
		t.Fatalf("update wrong: w=%v b=%v", m.W[0], m.B)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewLinear(3, 0.1)
	m.W[1] = 5
	m.Sched.Next()
	c := m.Clone()
	c.W[1] = -1
	c.Sched.Next()
	if m.W[1] != 5 {
		t.Fatal("Clone shares weights")
	}
	if m.Sched.Steps() != 1 || c.Sched.Steps() != 2 {
		t.Fatal("Clone shares schedule")
	}
}

func TestBytes(t *testing.T) {
	if NewLinear(7, 0).Bytes() != 64 {
		t.Fatal("Bytes accounting wrong")
	}
}

func TestAvgLossZeroOnPerfectLargeMargin(t *testing.T) {
	ds, labels := separable(50, 3, 3)
	m := NewLinear(3, 0)
	m.W[0] = 100 // margins far beyond 1
	if loss := m.AvgLoss(pointSamples{ds, labels}, sgd.Order(ds.N, false, nil)); loss != 0 {
		t.Fatalf("loss = %v, want 0", loss)
	}
}

func TestAutoTuneDoesNotMutateModel(t *testing.T) {
	ds, labels := separable(200, 4, 4)
	m := NewLinear(4, 1e-3)
	m.W[2] = 0.7
	m.AutoTune(pointSamples{ds, labels})
	if m.W[2] != 0.7 || m.B != 0 {
		t.Fatal("AutoTune must not change parameters")
	}
	if m.Sched.Eta0 <= 0 {
		t.Fatal("AutoTune must set a positive eta0")
	}
	if m.Sched.Steps() != 0 {
		t.Fatal("AutoTune must reset the schedule")
	}
}

func TestKernelMapValuesInUnitInterval(t *testing.T) {
	ds := dataset.GISTLike(100, 6, 4, 5)
	k := NewKernelMap(ds, 16, 6)
	if k.Centres.Rows != 16 {
		t.Fatal("centre count wrong")
	}
	if k.Sigma <= 0 {
		t.Fatal("sigma must be positive")
	}
	buf := make([]float64, 6)
	feat := k.Apply(ds.Point(0, buf), nil)
	for _, v := range feat {
		if v <= 0 || v > 1 {
			t.Fatalf("kernel value %v out of (0,1]", v)
		}
	}
}

func TestKernelMapSelfCentreIsOne(t *testing.T) {
	ds := dataset.GISTLike(10, 4, 2, 7)
	k := &KernelMap{Centres: ds.Matrix().Clone(), Sigma: 1}
	feat := k.Apply(ds.Point(3, nil), nil)
	if math.Abs(feat[3]-1) > 1e-12 {
		t.Fatalf("k(x,x) = %v, want 1", feat[3])
	}
}

func TestKernelTransformQuantised(t *testing.T) {
	ds := dataset.GISTLike(60, 5, 3, 8)
	k := NewKernelMap(ds, 8, 9)
	q := k.Transform(ds)
	if q.Dequant() == nil {
		t.Fatal("quantised transform must be byte-backed")
	}
	if q.N != 60 || q.D != 8 {
		t.Fatalf("transform shape %dx%d", q.N, q.D)
	}
	// Quantisation error small relative to the [0,1] range.
	for i := 0; i < q.N; i++ {
		a := q.Point(i, nil)
		b := k.Apply(ds.Point(i, nil), nil)
		for j := range a {
			if math.Abs(a[j]-b[j]) > 1.0/128 {
				t.Fatalf("quantisation error %v too large", math.Abs(a[j]-b[j]))
			}
		}
	}
}

func TestKernelisedSVMSolvesNonlinearProblem(t *testing.T) {
	// Concentric classes: not linearly separable in input space, separable
	// after RBF expansion.
	rng := rand.New(rand.NewSource(10))
	n := 400
	x := vec.NewMatrix(n, 2)
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		r := 0.5
		y := -1.0
		if i%2 == 0 {
			r = 2.0
			y = 1
		}
		labels[i] = y
		theta := rng.Float64() * 2 * math.Pi
		x.Set(i, 0, r*math.Cos(theta)+rng.NormFloat64()*0.05)
		x.Set(i, 1, r*math.Sin(theta)+rng.NormFloat64()*0.05)
	}
	ds := dataset.FromMatrix(x)

	lin := NewLinear(2, 1e-4)
	ls := pointSamples{ds, labels}
	lin.AutoTune(ls)
	for e := 0; e < 5; e++ {
		ls.Pass(lin, sgd.Order(n, true, rng))
	}
	linAcc := ls.accuracy(lin)

	k := NewKernelMap(ds, 64, 11)
	feats := vec.NewMatrix(n, 64)
	for i := 0; i < n; i++ {
		k.Apply(ds.Point(i, nil), feats.Row(i))
	}
	ks := pointSamples{dataset.FromMatrix(feats), labels}
	km := NewLinear(64, 1e-5)
	km.AutoTune(ks)
	for e := 0; e < 10; e++ {
		ks.Pass(km, sgd.Order(n, true, rng))
	}
	kAcc := ks.accuracy(km)
	if kAcc < 0.95 {
		t.Fatalf("kernel accuracy = %v, want >= 0.95", kAcc)
	}
	if kAcc <= linAcc {
		t.Fatalf("kernel (%v) should beat linear (%v) on rings", kAcc, linAcc)
	}
}
