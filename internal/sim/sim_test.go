package sim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/speedup"
)

func baseCfg() Config {
	return Config{P: 8, N: 50000, M: 32, Epochs: 1, TWr: 1, TWc: 100, TZr: 10, Seed: 1}
}

func TestDeterministicWithoutNoise(t *testing.T) {
	a, b := Run(baseCfg()), Run(baseCfg())
	if a.T != b.T || a.TW != b.TW || a.TZ != b.TZ {
		t.Fatal("noise-free simulation must be deterministic")
	}
}

func TestHopsAccounting(t *testing.T) {
	cfg := baseCfg()
	r := Run(cfg)
	// Each of M tokens makes (e+1)P−2 paid hops (initial placement is free).
	want := cfg.M * ((cfg.Epochs+1)*cfg.P - 2)
	if r.Hops != want {
		t.Fatalf("hops = %d, want %d", r.Hops, want)
	}
}

func TestZStepMakespan(t *testing.T) {
	cfg := baseCfg()
	r := Run(cfg)
	// Equal machines: TZ = M·(N/P)·tZr exactly (eq. 7).
	want := float64(cfg.M) * float64(cfg.N) / float64(cfg.P) * cfg.TZr
	if math.Abs(r.TZ-want) > 1e-6*want {
		t.Fatalf("TZ = %v, want %v", r.TZ, want)
	}
}

func TestSimTracksTheoryModel(t *testing.T) {
	// The asynchronous simulation must stay close to the §5.1 synchronous
	// model (which is an upper bound up to edge effects).
	cfg := baseCfg()
	th := speedup.Params{N: cfg.N, M: cfg.M, E: cfg.Epochs, TWr: cfg.TWr, TWc: cfg.TWc, TZr: cfg.TZr}
	for _, p := range []int{2, 4, 8, 16, 32} {
		c := cfg
		c.P = p
		got := SerialTime(c) / Run(c).T
		want := th.Speedup(float64(p))
		if math.Abs(got-want) > 0.25*want {
			t.Fatalf("P=%d: sim speedup %v vs theory %v", p, got, want)
		}
	}
}

func TestNearPerfectSpeedupRegime(t *testing.T) {
	// Cheap communication, P ≤ M: S(P) ≈ P (§5.2).
	cfg := Config{N: 100000, M: 64, Epochs: 1, TWr: 1, TWc: 1, TZr: 10, Seed: 2}
	ss := speedupSweep(cfg, []int{2, 8, 32, 64})
	wants := []float64{2, 8, 32, 64}
	for i, s := range ss {
		if s < 0.9*wants[i] || s > wants[i]+1e-9 {
			t.Fatalf("S(%v) = %v, want ≈ perfect", wants[i], s)
		}
	}
}

func TestSpeedupSaturatesBeyondM(t *testing.T) {
	// P ≫ M with costly communication: speedup must fall off its peak
	// (Fig. 4's shape).
	cfg := Config{N: 50000, M: 8, Epochs: 1, TWr: 1, TWc: 1000, TZr: 1, Seed: 3}
	ss := speedupSweep(cfg, []int{4, 8, 64, 256})
	if !(ss[1] > ss[0]) {
		t.Fatalf("speedup should still grow to P=M: %v", ss)
	}
	if ss[3] >= ss[2] {
		t.Fatalf("speedup should decay for P ≫ M with expensive comm: %v", ss)
	}
}

func TestMoreEpochsLowerSpeedup(t *testing.T) {
	// §8.3: more epochs → more communication → flatter speedups.
	mk := func(e int) float64 {
		cfg := Config{N: 50000, M: 32, Epochs: e, TWr: 1, TWc: 10000, TZr: 200, Seed: 4}
		return speedupSweep(cfg, []int{64})[0]
	}
	if s1, s8 := mk(1), mk(8); s8 >= s1 {
		t.Fatalf("e=8 speedup %v should be below e=1 %v", s8, s1)
	}
}

func TestHeterogeneousMachinesBalancedByAlphas(t *testing.T) {
	// §4.3: loading machines proportionally to α equalises their runtime;
	// the makespan with a 2×-fast machine (and proportional shard) should
	// be close to the homogeneous-equivalent capacity.
	base := Config{P: 4, N: 40000, M: 16, Epochs: 1, TWr: 1, TWc: 0.001, TZr: 1, Seed: 5}
	hom := Run(base)
	het := base
	het.Alphas = []float64{2, 1, 1, 1} // total capacity 5 vs 4
	r := Run(het)
	// More capacity → faster iteration; balancing must realise most of it.
	if r.T >= hom.T {
		t.Fatalf("heterogeneous-balanced run (%v) should beat homogeneous (%v)", r.T, hom.T)
	}
	ratio := hom.T / r.T
	if ratio < 1.1 || ratio > 1.4 { // ideal 5/4 = 1.25
		t.Fatalf("capacity ratio realised %v, want ≈1.25", ratio)
	}
}

func TestNoiseChangesButStaysClose(t *testing.T) {
	cfg := baseCfg()
	cfg.Noise = 0.1
	a := Run(cfg)
	cfg.Seed = 99
	b := Run(cfg)
	if a.T == b.T {
		t.Fatal("noisy runs with different seeds should differ")
	}
	clean := Run(baseCfg())
	if math.Abs(a.T-clean.T) > 0.3*clean.T {
		t.Fatalf("10%% noise moved runtime too much: %v vs %v", a.T, clean.T)
	}
}

func TestNodeTopologyCommSplit(t *testing.T) {
	// Fig. 13: with P=16 fixed, fewer processors per node → more inter-node
	// hops → more communication time, while computation stays constant.
	mk := func(procsPerNode int) Result {
		return Run(Config{
			P: 16, N: 20000, M: 32, Epochs: 1, TWr: 1, TWc: 500, TZr: 1,
			ProcsPerNode: procsPerNode, IntraTWc: 50, Seed: 6,
		})
	}
	shared := mk(16) // 1×16: all intra-node
	distrib := mk(1) // 16×1: all inter-node
	mid := mk(4)     // 4×4
	if !(shared.CommTime < mid.CommTime && mid.CommTime < distrib.CommTime) {
		t.Fatalf("comm time ordering wrong: %v %v %v", shared.CommTime, mid.CommTime, distrib.CommTime)
	}
	if math.Abs(shared.CompTime-distrib.CompTime) > 1e-6*shared.CompTime {
		t.Fatalf("computation time must not depend on topology: %v vs %v", shared.CompTime, distrib.CompTime)
	}
}

func TestShuffledRingSameWorkload(t *testing.T) {
	cfg := baseCfg()
	cfg.Shuffle = true
	r := Run(cfg)
	want := cfg.M * ((cfg.Epochs+1)*cfg.P - 2)
	if r.Hops != want {
		t.Fatalf("shuffled hops = %d, want %d", r.Hops, want)
	}
	// Total compute identical to unshuffled (same visits).
	clean := Run(baseCfg())
	if math.Abs(r.CompTime-clean.CompTime) > 1e-6*clean.CompTime {
		t.Fatal("shuffling must not change total computation")
	}
}

func TestSerialTimeMatchesPaperFormula(t *testing.T) {
	cfg := Config{N: 1000, M: 10, Epochs: 3, TWr: 2, TZr: 5}
	want := 10.0*1000*3*2 + 10.0*1000*5
	if got := SerialTime(cfg); got != want {
		t.Fatalf("T(1) = %v, want %v", got, want)
	}
}

func TestSingleMachineSimNoComm(t *testing.T) {
	cfg := Config{P: 1, N: 1000, M: 4, Epochs: 2, TWr: 1, TWc: 100, TZr: 2, Seed: 7}
	r := Run(cfg)
	if r.CommTime != 0 {
		t.Fatalf("P=1 should have no communication, got %v", r.CommTime)
	}
	// route length (e+1)·1−1 = 2 training visits, 0 tail.
	want := 4.0*2*1000*1 + 4.0*1000*2
	if math.Abs(r.T-want) > 1e-9 {
		t.Fatalf("T = %v, want %v", r.T, want)
	}
}

func TestQuickSimSpeedupBounded(t *testing.T) {
	// Property: the simulated speedup never exceeds P (work conservation).
	f := func(pRaw, mRaw, eRaw uint8, twc uint16) bool {
		cfg := Config{
			P:      int(pRaw)%32 + 1,
			N:      2000,
			M:      int(mRaw)%64 + 1,
			Epochs: int(eRaw)%4 + 1,
			TWr:    1,
			TWc:    float64(twc%2000) + 1,
			TZr:    3,
			Seed:   int64(pRaw) + int64(mRaw),
		}
		s := SerialTime(cfg) / Run(cfg).T
		return s > 0 && s <= float64(cfg.P)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// speedupSweep sweeps machine counts and returns the simulated strong-scaling
// speedup S(P) = T(1)/T(P) for each (the Fig. 10 "experiment" curves).
func speedupSweep(cfg Config, ps []int) []float64 {
	t1 := SerialTime(cfg)
	out := make([]float64, len(ps))
	for i, p := range ps {
		c := cfg
		c.P = p
		c.Alphas = nil // homogeneous sweep
		r := Run(c)
		out[i] = t1 / r.T
	}
	return out
}
