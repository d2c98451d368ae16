package sim

import (
	"math"
	"testing"

	"repro/internal/speedup"
)

// runSynchronous executes the *synchronous* schedule of §5.1 directly: an
// imaginary clock ticks, and at each tick every machine processes its ⌈M/P⌉
// portion of submodels on its N/P points and then sends it to its successor;
// after P·e ticks plus a final copy round the W step ends, and the Z step
// runs in parallel. This is the schedule the closed-form T(P) of eq. (9) is
// derived from, so the two must agree exactly for homogeneous machines. The
// asynchronous Run is the realistic engine-like variant; this oracle
// validates the theory end of the bridge.
func runSynchronous(cfg Config) Result {
	if cfg.P <= 0 || cfg.M <= 0 || cfg.N <= 0 {
		panic("sim: P, M, N must be positive")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	p := float64(cfg.P)
	n := float64(cfg.N)
	m := float64(cfg.M)
	e := float64(cfg.Epochs)
	portion := math.Ceil(m / p) // submodels per machine per tick

	var res Result
	if cfg.P == 1 {
		// No communication on a single machine (eq. 10).
		res.TW = m * n * e * cfg.TWr
		res.CompTime = res.TW
	} else {
		// Tick time: process the portion, then send it (eq. 8's derivation).
		tick := portion * (cfg.TWr*n/p + cfg.TWc)
		res.TW = tick*p*e + portion*cfg.TWc*p // e epochs + final copy round
		res.CommTime = (portion*cfg.TWc)*p*e*p + portion*cfg.TWc*p*p
		res.CompTime = portion * (cfg.TWr * n / p) * p * e * p
		res.Hops = int(portion * p * (e*p + p - 1))
	}
	res.TZ = m * n / p * cfg.TZr // eq. (7)
	res.CompTime += m * n * cfg.TZr
	res.T = res.TW + res.TZ
	return res
}

func TestSynchronousMatchesClosedFormExactly(t *testing.T) {
	// runSynchronous implements the schedule eq. (9) was derived from, so
	// T(P) must match the speedup package to machine precision.
	cases := []Config{
		{P: 4, N: 50000, M: 32, Epochs: 1, TWr: 1, TWc: 100, TZr: 10},
		{P: 16, N: 50000, M: 32, Epochs: 8, TWr: 1, TWc: 1000, TZr: 200},
		{P: 7, N: 10000, M: 5, Epochs: 2, TWr: 2, TWc: 50, TZr: 3}, // M < P, non-divisible
		{P: 1, N: 1000, M: 8, Epochs: 3, TWr: 1, TWc: 100, TZr: 1},
	}
	for ci, cfg := range cases {
		th := speedup.Params{N: cfg.N, M: cfg.M, E: cfg.Epochs, TWr: cfg.TWr, TWc: cfg.TWc, TZr: cfg.TZr}
		got := runSynchronous(cfg).T
		want := th.T(cfg.P)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("case %d: sync T=%v, closed form %v", ci, got, want)
		}
	}
}

// synchronousSpeedup sweeps machine counts under the synchronous schedule.
func synchronousSpeedup(cfg Config, ps []int) []float64 {
	t1 := SerialTime(cfg)
	out := make([]float64, len(ps))
	for i, p := range ps {
		c := cfg
		c.P = p
		out[i] = t1 / runSynchronous(c).T
	}
	return out
}

func TestSynchronousSpeedupMatchesTheoryCurve(t *testing.T) {
	cfg := Config{N: 100000, M: 64, Epochs: 1, TWr: 1, TWc: 500, TZr: 20}
	th := speedup.Params{N: cfg.N, M: cfg.M, E: cfg.Epochs, TWr: cfg.TWr, TWc: cfg.TWc, TZr: cfg.TZr}
	ps := []int{2, 8, 32, 64, 100, 256}
	got := synchronousSpeedup(cfg, ps)
	for i, p := range ps {
		want := th.Speedup(float64(p))
		if math.Abs(got[i]-want) > 1e-9*want {
			t.Fatalf("P=%d: sync speedup %v vs theory %v", p, got[i], want)
		}
	}
}

func TestAsyncNeverSlowerThanSynchronous(t *testing.T) {
	// The synchronous schedule idles machines at tick boundaries; the
	// asynchronous queues cannot do worse (the paper's footnote 3: the
	// synchronous estimate "is an upper bound").
	for _, cfg := range []Config{
		{P: 8, N: 50000, M: 32, Epochs: 1, TWr: 1, TWc: 100, TZr: 10, Seed: 1},
		{P: 12, N: 20000, M: 7, Epochs: 2, TWr: 1, TWc: 1000, TZr: 1, Seed: 2}, // M not divisible by P
		{P: 32, N: 50000, M: 8, Epochs: 1, TWr: 1, TWc: 2000, TZr: 1, Seed: 3}, // P >> M
	} {
		async := Run(cfg).T
		sync := runSynchronous(cfg).T
		if async > sync*(1+1e-9) {
			t.Fatalf("async T=%v exceeds synchronous bound %v (cfg %+v)", async, sync, cfg)
		}
	}
}
