package binauto

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/retrieval"
	"repro/internal/sgd"
)

// sweepWorkers are the worker counts every pooled entry point is checked at:
// serial, small, odd, more than the chunk count allows, and every core.
var sweepWorkers = []int{1, 2, 3, 8, -1}

// TrainWStepSerial is the per-bit reference W step of Fig. 1 on (pts, z):
// each of the L per-bit SVMs is auto-tuned and trained for cfg.SVMEpochs SGD
// passes, and the decoder is replaced by the dense exact least-squares fit —
// L+1 full passes over the data per epoch round. TrainWStep must reproduce
// it bit for bit whenever the per-bit sample orders coincide.
func TrainWStepSerial(m *Model, pts sgd.Points, z *retrieval.Codes, cfg *MACConfig, rng *rand.Rand) error {
	n := pts.NumPoints()
	for l := 0; l < m.L(); l++ {
		rows := pointRows{pts, z, l}
		e := m.Enc[l]
		e.AutoTune(rows)
		for ep := 0; ep < cfg.SVMEpochs; ep++ {
			rows.Pass(e, sgd.Order(n, cfg.Shuffle, rng))
		}
	}
	return m.FitDecoderExactDense(pts, z, cfg.DecLambda)
}

// codesEqualHash reports whether z equals h(X) everywhere by re-encoding
// every point: the independent oracle for the z == h(X) check the Z step
// folds into its pass (ZStepResult.HashEqual).
func codesEqualHash(m *Model, pts sgd.Points, z *retrieval.Codes) bool {
	buf := make([]float64, m.D())
	for i := 0; i < pts.NumPoints(); i++ {
		if z.Word64(i) != m.EncodePointWord(pts.Point(i, buf)) {
			return false
		}
	}
	return true
}

// encodersEqualBitwise demands bitwise-equal encoder weights, biases and
// schedule state (η0 selection and step counts), plus a bitwise decoder.
func encodersEqualBitwise(t *testing.T, a, b *Model, context string) {
	t.Helper()
	if !modelsEqual(a, b) {
		t.Fatalf("%s: model parameters differ", context)
	}
	for l := range a.Enc {
		sa, sb := a.Enc[l].Sched, b.Enc[l].Sched
		if sa.Eta0 != sb.Eta0 || sa.Steps() != sb.Steps() {
			t.Fatalf("%s: bit %d schedule differs: eta0 %v vs %v, steps %v vs %v",
				context, l, sa.Eta0, sb.Eta0, sa.Steps(), sb.Steps())
		}
	}
}

// TestTrainWStepFusedMatchesSerialBitForBit: at one worker and Shuffle=false
// the fused multi-bit TrainWStep must reproduce TrainWStepSerial exactly —
// auto-tuned η0 per bit, every SVM weight, and the decoder.
func TestTrainWStepFusedMatchesSerialBitForBit(t *testing.T) {
	for _, byteBacked := range []bool{false, true} {
		ds := dataset.GISTLike(300, 20, 4, 51)
		if byteBacked {
			ds = dataset.SIFTLike(300, 20, 4, 51)
		}
		z := randomCodesW(300, 9, 52)
		cfg := &MACConfig{L: 9, SVMLambda: 1e-5, SVMEpochs: 3, DecLambda: 1e-3}

		serial := NewModel(20, 9, cfg.SVMLambda)
		if err := TrainWStepSerial(serial, ds, z, cfg, rand.New(rand.NewSource(53))); err != nil {
			t.Fatal(err)
		}
		fused := NewModel(20, 9, cfg.SVMLambda)
		if err := TrainWStep(fused, ds, z, cfg, rand.New(rand.NewSource(53)), 1); err != nil {
			t.Fatal(err)
		}
		encodersEqualBitwise(t, serial, fused, "fused vs serial")
	}
}

// TestTrainWStepFusedSecondRoundMatches: MAC re-enters the W step every
// iteration with warm SVMs; the equivalence must hold from a non-zero
// starting state too (the auto-tune clones the current weights).
func TestTrainWStepFusedSecondRoundMatches(t *testing.T) {
	ds := dataset.GISTLike(250, 12, 4, 61)
	z := randomCodesW(250, 6, 62)
	z2 := randomCodesW(250, 6, 63)
	cfg := &MACConfig{L: 6, SVMLambda: 1e-5, SVMEpochs: 2, DecLambda: 1e-3}

	serial := NewModel(12, 6, cfg.SVMLambda)
	fused := NewModel(12, 6, cfg.SVMLambda)
	for _, codes := range []*retrieval.Codes{z, z2} {
		if err := TrainWStepSerial(serial, ds, codes, cfg, rand.New(rand.NewSource(64))); err != nil {
			t.Fatal(err)
		}
		if err := TrainWStep(fused, ds, codes, cfg, rand.New(rand.NewSource(64)), 1); err != nil {
			t.Fatal(err)
		}
	}
	encodersEqualBitwise(t, serial, fused, "second round")
}

// TestTrainWStepFusedParallelBitIdentical: bit-group parallelism must be a
// pure speed knob — any worker count, with and without shuffling, produces
// the same model as the fused serial pass. Run under -race (CI does) this
// also proves the bit groups share nothing mutable.
func TestTrainWStepFusedParallelBitIdentical(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		ds := dataset.SIFTLike(400, 16, 4, 71)
		z := randomCodesW(400, 10, 72)
		cfg := &MACConfig{L: 10, SVMLambda: 1e-5, SVMEpochs: 2, DecLambda: 1e-3, Shuffle: shuffle}

		ref := NewModel(16, 10, cfg.SVMLambda)
		if err := TrainWStep(ref, ds, z, cfg, rand.New(rand.NewSource(73)), 1); err != nil {
			t.Fatal(err)
		}
		for _, workers := range sweepWorkers {
			m := NewModel(16, 10, cfg.SVMLambda)
			if err := TrainWStep(m, ds, z, cfg, rand.New(rand.NewSource(73)), workers); err != nil {
				t.Fatal(err)
			}
			encodersEqualBitwise(t, ref, m, "parallel vs fused serial")
		}
	}
}

// TestRunMACParallelKnobBitIdentical: the MACConfig.Parallel knob must not
// change what RunMAC computes (Shuffle=false), only how fast.
func TestRunMACParallelKnobBitIdentical(t *testing.T) {
	ds := dataset.GISTLike(300, 12, 4, 81)
	run := func(parallel int) (*Model, *retrieval.Codes, []IterStats) {
		return RunMAC(ds, MACConfig{
			L: 8, Mu0: 1e-3, MuFactor: 2, Iters: 4, SVMEpochs: 2, Seed: 82,
			Parallel: parallel,
		})
	}
	m1, z1, s1 := run(0)
	m2, z2, s2 := run(4)
	if !modelsEqual(m1, m2) {
		t.Fatal("RunMAC model depends on the Parallel knob")
	}
	if !z1.Equal(z2) {
		t.Fatal("RunMAC codes depend on the Parallel knob")
	}
	if len(s1) != len(s2) {
		t.Fatalf("learning curves differ in length: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].EQ != s2[i].EQ || s1[i].EBA != s2[i].EBA || s1[i].ZChanged != s2[i].ZChanged || s1[i].Stopped != s2[i].Stopped {
			t.Fatalf("iteration %d stats differ: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

// TestZStepFoldedHashEqualMatchesOracle: the HashEqual flag the Z step folds
// into its result must agree with the independent codesEqualHash re-encode,
// serial and parallel, across μ values that do and do not reach z = h(X).
func TestZStepFoldedHashEqualMatchesOracle(t *testing.T) {
	ds := dataset.GISTLike(200, 10, 3, 91)
	m := randomModel(10, 8, 92)
	for _, mu := range []float64{1e-4, 0.5, 100} {
		for _, workers := range []int{1, 4} {
			z := m.Encode(ds, 1) // start at z = h(X) so large μ keeps it there
			perturbCodes(z, 93)
			res := NewZKernel(m, mu, ZEnumerate).RunStats(ds, z, workers)
			if want := codesEqualHash(m, ds, z); res.HashEqual != want {
				t.Fatalf("mu=%g workers=%d: folded HashEqual=%v, oracle=%v",
					mu, workers, res.HashEqual, want)
			}
		}
	}
}

// TestZStepHashEqualWithIdleWorkers is the regression test for the
// fewer-chunks-than-workers geometry: ParallelChunks(1089, 34) creates only
// 33 chunks (chunk size ⌈1089/34⌉ = 33), so one worker slot never runs; its
// untouched result entry must not veto HashEqual.
func TestZStepHashEqualWithIdleWorkers(t *testing.T) {
	ds := dataset.GISTLike(1089, 8, 3, 101)
	m := randomModel(8, 6, 102)
	z := m.Encode(ds, 1) // start at z = h(X)
	// A huge μ makes keeping z = h(X) optimal everywhere.
	res := NewZKernel(m, 1e6, ZEnumerate).RunStats(ds, z, 34)
	if res.Changed != 0 {
		t.Fatalf("huge-mu Z step changed %d codes", res.Changed)
	}
	if !res.HashEqual {
		t.Fatal("HashEqual false despite z == h(X): idle worker slot vetoed the fold")
	}
	if !codesEqualHash(m, ds, z) {
		t.Fatal("oracle disagrees: codes do not equal the hash")
	}
}

// perturbCodes flips a few bits deterministically.
func perturbCodes(z *retrieval.Codes, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < z.N/4; n++ {
		i := rng.Intn(z.N)
		b := rng.Intn(z.L)
		z.SetBit(i, b, !z.Bit(i, b))
	}
}

// TestValidationScoreParallelMatchesSerial: the scoring pool must not change
// the score, for both the precision and the recall protocols.
func TestValidationScoreParallelMatchesSerial(t *testing.T) {
	base := dataset.GISTLike(300, 10, 3, 95)
	queries := dataset.GISTLike(40, 10, 3, 96)
	truth := retrieval.GroundTruth(base, queries, 10, 1)
	m := randomModel(10, 8, 97)
	for _, useRecall := range []bool{false, true} {
		v := &Validation{Base: base, Queries: queries, Truth: truth, K: 10, UseRecall: useRecall}
		serial := v.Score(m, 1)
		if math.IsNaN(serial) {
			t.Fatalf("useRecall=%v: NaN score", useRecall)
		}
		for _, workers := range sweepWorkers {
			if got := v.Score(m, workers); got != serial {
				t.Fatalf("useRecall=%v workers=%d: score %v != serial %v", useRecall, workers, got, serial)
			}
		}
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
		if got := m.Encode(ds, workers); !got.Equal(want) {
			t.Fatalf("workers=%d: Encode differs from the per-point loop", workers)
		}
	}
	if !m.EncodeParallel(ds, -1).Equal(want) {
		t.Fatal("EncodeParallel differs from Encode")
	}
}

// TestEta0LadderMatchesAutoTuneSearch pins the refactored TuneEta0 pieces:
// the ladder times the per-candidate trial losses through PickEta0 must be
// the same selection TuneEta0 makes.
func TestEta0LadderMatchesAutoTuneSearch(t *testing.T) {
	trial := func(eta float64) float64 {
		// An arbitrary bumpy objective with a unique minimum inside the range.
		return math.Abs(math.Log(eta) - math.Log(0.1))
	}
	etas := sgd.Eta0Ladder(1e-4, 16, 4)
	losses := make([]float64, len(etas))
	for i, e := range etas {
		losses[i] = trial(e)
	}
	if got, want := sgd.PickEta0(etas, losses), sgd.TuneEta0(1e-4, 16, 4, trial); got != want {
		t.Fatalf("PickEta0 %v != TuneEta0 %v", got, want)
	}
}
