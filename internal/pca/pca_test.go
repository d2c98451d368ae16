package pca

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/retrieval"
	"repro/internal/sgd"
	"repro/internal/vec"
)

// anisotropic builds data stretched strongly along a known direction.
func anisotropic(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := vec.NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64()*10+5)
		x.Set(i, 1, rng.NormFloat64()*1)
		x.Set(i, 2, rng.NormFloat64()*0.1)
	}
	return dataset.FromMatrix(x)
}

func TestFitFindsDominantDirection(t *testing.T) {
	ds := anisotropic(2000, 1)
	p := Fit(ds, 2)
	if math.Abs(p.Mean[0]-5) > 0.5 {
		t.Fatalf("mean[0]=%v want ≈5", p.Mean[0])
	}
	// First component should align with axis 0.
	if math.Abs(math.Abs(p.Components.At(0, 0))-1) > 0.05 {
		t.Fatalf("first component %v not aligned with axis 0", p.Components.Col(0, nil))
	}
	if p.EigVals[0] < p.EigVals[1] {
		t.Fatal("eigenvalues not descending")
	}
	if math.Abs(p.EigVals[0]-100) > 15 {
		t.Fatalf("top eigenvalue %v want ≈100", p.EigVals[0])
	}
}

func TestProjectionIsCentred(t *testing.T) {
	ds := anisotropic(500, 2)
	p := Fit(ds, 2)
	proj := p.ProjectAll(ds)
	for j := 0; j < 2; j++ {
		var mean float64
		for i := 0; i < proj.Rows; i++ {
			mean += proj.At(i, j)
		}
		mean /= float64(proj.Rows)
		if math.Abs(mean) > 1e-8 {
			t.Fatalf("projection dim %d mean %v, want 0", j, mean)
		}
	}
}

func TestProjectionPreservesVarianceOrdering(t *testing.T) {
	ds := anisotropic(1000, 3)
	p := Fit(ds, 3)
	proj := p.ProjectAll(ds)
	vars := make([]float64, 3)
	for j := 0; j < 3; j++ {
		for i := 0; i < proj.Rows; i++ {
			vars[j] += proj.At(i, j) * proj.At(i, j)
		}
	}
	if !(vars[0] > vars[1] && vars[1] > vars[2]) {
		t.Fatalf("projected variances not descending: %v", vars)
	}
}

func TestTPCAEncodeSplitsOnDominantAxis(t *testing.T) {
	ds := anisotropic(400, 4)
	h := FitTPCA(ds, 1)
	codes := h.Encode(ds)
	// Bit 0 must equal the sign of (x0 - mean0) up to global flip.
	agree := 0
	for i := 0; i < ds.N; i++ {
		want := ds.Point(i, nil)[0]-h.P.Mean[0] >= 0
		if codes.Bit(i, 0) == want {
			agree++
		}
	}
	frac := float64(agree) / float64(ds.N)
	if frac < 0.99 && frac > 0.01 {
		t.Fatalf("tPCA bit agreement %v, want ≈0 or ≈1", frac)
	}
}

func TestITQRotationOrthogonal(t *testing.T) {
	ds := dataset.GISTLike(300, 8, 4, 5)
	h := FitITQ(ds, 4, 10, 6)
	gram, id := h.R.Gram(), vec.Identity(4)
	for i, v := range gram.Data {
		if !(math.Abs(v-id.Data[i]) <= 1e-8) { // negated so NaN fails
			t.Fatalf("ITQ rotation not orthogonal: RᵀR entry %d = %v", i, v)
		}
	}
}

// QuantisationError returns the mean ITQ objective ‖sign(VR) − VR‖²/N on the
// sample, the quantity ITQ's alternation decreases.
func (h *ITQ) QuantisationError(pts sgd.Points) float64 {
	v := h.P.ProjectAll(pts)
	vr := vec.Mul(v, h.R)
	var e float64
	for _, val := range vr.Data {
		s := 1.0
		if val < 0 {
			s = -1
		}
		d := s - val
		e += d * d
	}
	return e / float64(v.Rows)
}

func TestITQImprovesQuantisationErrorOverIdentity(t *testing.T) {
	ds := dataset.GISTLike(500, 10, 5, 7)
	trained := FitITQ(ds, 6, 20, 8)
	identity := &ITQ{P: trained.P, R: vec.Identity(6)}
	if trained.QuantisationError(ds) > identity.QuantisationError(ds)+1e-9 {
		t.Fatalf("ITQ (%v) should not be worse than identity rotation (%v)",
			trained.QuantisationError(ds), identity.QuantisationError(ds))
	}
}

func TestITQMonotoneInIterations(t *testing.T) {
	ds := dataset.GISTLike(400, 8, 4, 9)
	e1 := FitITQ(ds, 4, 1, 10).QuantisationError(ds)
	e20 := FitITQ(ds, 4, 20, 10).QuantisationError(ds)
	if e20 > e1+1e-9 {
		t.Fatalf("more ITQ iterations should not hurt: %v -> %v", e1, e20)
	}
}

func TestInitialCodesShapeAndSubsample(t *testing.T) {
	ds := dataset.GISTLike(1000, 12, 4, 11)
	codes, h := InitialCodes(ds, 8, 200, 12)
	if codes.N != 1000 || codes.L != 8 {
		t.Fatalf("codes shape %dx%d", codes.N, codes.L)
	}
	if h == nil || h.P.Components.Cols != 8 {
		t.Fatal("hash missing")
	}
}

func TestTPCARetrievalBeatsRandomCodes(t *testing.T) {
	// tPCA codes must retrieve true neighbours far better than random codes.
	ds := dataset.GISTLike(600, 16, 8, 13)
	queries := dataset.GISTLike(40, 16, 8, 13) // same mixture
	h := FitTPCA(ds, 8)
	baseCodes := h.Encode(ds)
	qCodes := h.Encode(queries)
	truth := retrieval.GroundTruth(ds, queries, 20, 1)
	retr := make([][]int, queries.N)
	for q := 0; q < queries.N; q++ {
		retr[q] = retrieval.TopKHamming(baseCodes, qCodes.Code(q), 20)
	}
	pTPCA := retrieval.Precision(truth, retr)

	rng := rand.New(rand.NewSource(14))
	randBase := retrieval.NewCodes(600, 8)
	randQ := retrieval.NewCodes(40, 8)
	for i := range randBase.Data {
		randBase.Data[i] = rng.Uint64()
	}
	for i := range randQ.Data {
		randQ.Data[i] = rng.Uint64()
	}
	// Mask to 8 bits per code.
	for i := 0; i < 600; i++ {
		randBase.Code(i)[0] &= 0xFF
	}
	for q := 0; q < 40; q++ {
		randQ.Code(q)[0] &= 0xFF
	}
	retrRand := make([][]int, queries.N)
	for q := 0; q < queries.N; q++ {
		retrRand[q] = retrieval.TopKHamming(randBase, randQ.Code(q), 20)
	}
	pRand := retrieval.Precision(truth, retrRand)
	if pTPCA <= pRand {
		t.Fatalf("tPCA precision %v should beat random %v", pTPCA, pRand)
	}
}
