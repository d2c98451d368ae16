package speedup

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func baseSim() (Params, Cluster) {
	return Params{N: 50000, M: 32, E: 1, TWr: 1, TWc: 100, TZr: 10}, Cluster{P: 8, Seed: 1}
}

// TestSimulatePinned pins the simulator bit for bit on the three
// configurations the figures use most: fig13's 4×4 split, fig10's noisy
// e=8, P=32 cell (seed 1), and the SIFT-1B P=128 run behind the simulated
// training hours.
func TestSimulatePinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		p       Params
		c       Cluster
		want    string
		wantT1  float64
		wantHop int
	}{
		{"fig13 4x4",
			Params{N: 20000, M: 128, E: 2, TWr: 1, TWc: 500, TZr: 5},
			Cluster{P: 16, ProcsPerNode: 4, IntraTWc: 50, Seed: 1},
			"T=1304000 comm=956800 comp=17920000 idle=1892400", 17920000, 5888},
		{"fig10 e=8 P=32",
			Params{N: 50000, M: 32, E: 8, TWr: 1, TWc: 1e4, TZr: 200},
			Cluster{P: 32, Noise: 0.05, Seed: 1 + 32 + 8*1000},
			"T=14671334.230856568 comm=91511423.985693097 comp=341281588.25150132 idle=3967778.3862885437", 332800000, 9152},
		{"sift1b P=128",
			Params{N: 100000000, M: 128, E: 2, TWr: 1, TWc: 1e4, TZr: 40},
			Cluster{P: 128, Seed: 1},
			"T=4203820000 comm=488960000 comp=537600000000 idle=0", 537600000000, 48896},
	} {
		r := c.p.Simulate(c.c)
		got := fmt.Sprintf("T=%.17g comm=%.17g comp=%.17g idle=%.17g", r.T, r.CommTime, r.CompTime, r.IdleTime)
		if got != c.want || r.Hops != c.wantHop || c.p.T(1) != c.wantT1 {
			t.Errorf("%s: %s hops=%d T(1)=%.17g\nwant %s hops=%d T(1)=%.17g",
				c.name, got, r.Hops, c.p.T(1), c.want, c.wantHop, c.wantT1)
		}
	}
}

func TestSimulateRejectsEmptyWorkload(t *testing.T) {
	p, c := baseSim()
	for name, mutate := range map[string]func(*Params, *Cluster){
		"P=0": func(_ *Params, c *Cluster) { c.P = 0 },
		"N=0": func(p *Params, _ *Cluster) { p.N = 0 },
		"M=0": func(p *Params, _ *Cluster) { p.M = 0 },
		"E=0": func(p *Params, _ *Cluster) { p.E = 0 },
	} {
		pp, cc := p, c
		mutate(&pp, &cc)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "must be positive") {
					t.Errorf("%s: recovered %q, want a panic", name, msg)
				}
			}()
			pp.Simulate(cc)
		}()
	}
}

func TestDeterministicWithoutNoise(t *testing.T) {
	p, c := baseSim()
	a, b := p.Simulate(c), p.Simulate(c)
	if a.T != b.T || a.TW != b.TW || a.TZ != b.TZ {
		t.Fatal("noise-free simulation must be deterministic")
	}
}

func TestHopsAccounting(t *testing.T) {
	p, c := baseSim()
	r := p.Simulate(c)
	// Each of M tokens makes (e+1)P−2 paid hops (initial placement is free).
	want := p.M * ((p.E+1)*c.P - 2)
	if r.Hops != want {
		t.Fatalf("hops = %d, want %d", r.Hops, want)
	}
}

func TestZStepMakespan(t *testing.T) {
	p, c := baseSim()
	r := p.Simulate(c)
	// Equal machines: TZ = M·(N/P)·tZr exactly (eq. 7).
	want := float64(p.M) * float64(p.N) / float64(c.P) * p.TZr
	if math.Abs(r.TZ-want) > 1e-6*want {
		t.Fatalf("TZ = %v, want %v", r.TZ, want)
	}
}

func TestSimTracksTheoryModel(t *testing.T) {
	// The asynchronous simulation must stay close to the §5.1 synchronous
	// model (which is an upper bound up to edge effects).
	p, c := baseSim()
	for _, P := range []int{2, 4, 8, 16, 32} {
		c.P = P
		got := p.T(1) / p.Simulate(c).T
		want := p.Speedup(float64(P))
		if math.Abs(got-want) > 0.25*want {
			t.Fatalf("P=%d: sim speedup %v vs theory %v", P, got, want)
		}
	}
}

func TestNearPerfectSpeedupRegime(t *testing.T) {
	// Cheap communication, P ≤ M: S(P) ≈ P (§5.2).
	p := Params{N: 100000, M: 64, E: 1, TWr: 1, TWc: 1, TZr: 10}
	ss := simulatedSweep(p, 2, []int{2, 8, 32, 64})
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
	p := Params{N: 50000, M: 8, E: 1, TWr: 1, TWc: 1000, TZr: 1}
	ss := simulatedSweep(p, 3, []int{4, 8, 64, 256})
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
		p := Params{N: 50000, M: 32, E: e, TWr: 1, TWc: 10000, TZr: 200}
		return simulatedSweep(p, 4, []int{64})[0]
	}
	if s1, s8 := mk(1), mk(8); s8 >= s1 {
		t.Fatalf("e=8 speedup %v should be below e=1 %v", s8, s1)
	}
}

func TestNoiseChangesButStaysClose(t *testing.T) {
	p, c := baseSim()
	clean := p.Simulate(c)
	c.Noise = 0.1
	a := p.Simulate(c)
	c.Seed = 99
	b := p.Simulate(c)
	if a.T == b.T {
		t.Fatal("noisy runs with different seeds should differ")
	}
	if math.Abs(a.T-clean.T) > 0.3*clean.T {
		t.Fatalf("10%% noise moved runtime too much: %v vs %v", a.T, clean.T)
	}
}

func TestNodeTopologyCommSplit(t *testing.T) {
	// Fig. 13: with P=16 fixed, fewer processors per node → more inter-node
	// hops → more communication time, while computation stays constant.
	p := Params{N: 20000, M: 32, E: 1, TWr: 1, TWc: 500, TZr: 1}
	mk := func(procsPerNode int) SimResult {
		return p.Simulate(Cluster{P: 16, ProcsPerNode: procsPerNode, IntraTWc: 50, Seed: 6})
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

func TestT1MatchesPaperFormula(t *testing.T) {
	p := Params{N: 1000, M: 10, E: 3, TWr: 2, TZr: 5}
	want := 10.0*1000*3*2 + 10.0*1000*5
	if got := p.T(1); got != want {
		t.Fatalf("T(1) = %v, want %v", got, want)
	}
}

func TestSingleMachineSimNoComm(t *testing.T) {
	p := Params{N: 1000, M: 4, E: 2, TWr: 1, TWc: 100, TZr: 2}
	r := p.Simulate(Cluster{P: 1, Seed: 7})
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
		p := Params{
			N:   2000,
			M:   int(mRaw)%64 + 1,
			E:   int(eRaw)%4 + 1,
			TWr: 1,
			TWc: float64(twc%2000) + 1,
			TZr: 3,
		}
		c := Cluster{P: int(pRaw)%32 + 1, Seed: int64(pRaw) + int64(mRaw)}
		s := p.T(1) / p.Simulate(c).T
		return s > 0 && s <= float64(c.P)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// simulatedSweep returns the simulated strong-scaling speedup S(P) =
// T(1)/T(P) at each machine count (the Fig. 10 "experiment" curves).
func simulatedSweep(p Params, seed int64, ps []int) []float64 {
	out := make([]float64, len(ps))
	for i, P := range ps {
		out[i] = p.T(1) / p.Simulate(Cluster{P: P, Seed: seed}).T
	}
	return out
}
