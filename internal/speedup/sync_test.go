package speedup

import (
	"math"
	"testing"
)

// runSynchronous executes the *synchronous* schedule of §5.1 directly: an
// imaginary clock ticks, and at each tick every machine processes its ⌈M/P⌉
// portion of submodels on its N/P points and then sends it to its successor;
// after P·e ticks plus a final copy round the W step ends, and the Z step
// runs in parallel. This is the schedule the closed-form T(P) of eq. (9) is
// derived from, so the two must agree exactly for homogeneous machines. The
// asynchronous Simulate is the realistic engine-like variant; this oracle
// validates the theory end of the bridge.
func runSynchronous(p Params, P int) SimResult {
	if P <= 0 || p.M <= 0 || p.N <= 0 || p.E <= 0 {
		panic("speedup: P, M, N and E must be positive")
	}
	pf := float64(P)
	n := float64(p.N)
	m := float64(p.M)
	e := float64(p.E)
	portion := math.Ceil(m / pf) // submodels per machine per tick

	var res SimResult
	if P == 1 {
		// No communication on a single machine (eq. 10).
		res.TW = m * n * e * p.TWr
		res.CompTime = res.TW
	} else {
		// Tick time: process the portion, then send it (eq. 8's derivation).
		tick := portion * (p.TWr*n/pf + p.TWc)
		res.TW = tick*pf*e + portion*p.TWc*pf // e epochs + final copy round
		res.CommTime = (portion*p.TWc)*pf*e*pf + portion*p.TWc*pf*pf
		res.CompTime = portion * (p.TWr * n / pf) * pf * e * pf
		res.Hops = int(portion * pf * (e*pf + pf - 1))
	}
	res.TZ = m * n / pf * p.TZr // eq. (7)
	res.CompTime += m * n * p.TZr
	res.T = res.TW + res.TZ
	return res
}

func TestSynchronousMatchesClosedFormExactly(t *testing.T) {
	// runSynchronous implements the schedule eq. (9) was derived from, so
	// T(P) must match the closed form to machine precision.
	cases := []struct {
		p Params
		P int
	}{
		{Params{N: 50000, M: 32, E: 1, TWr: 1, TWc: 100, TZr: 10}, 4},
		{Params{N: 50000, M: 32, E: 8, TWr: 1, TWc: 1000, TZr: 200}, 16},
		{Params{N: 10000, M: 5, E: 2, TWr: 2, TWc: 50, TZr: 3}, 7}, // M < P, non-divisible
		{Params{N: 1000, M: 8, E: 3, TWr: 1, TWc: 100, TZr: 1}, 1},
	}
	for ci, c := range cases {
		got := runSynchronous(c.p, c.P).T
		want := c.p.T(float64(c.P))
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("case %d: sync T=%v, closed form %v", ci, got, want)
		}
	}
}

func TestSynchronousSpeedupMatchesTheoryCurve(t *testing.T) {
	p := Params{N: 100000, M: 64, E: 1, TWr: 1, TWc: 500, TZr: 20}
	for _, P := range []int{2, 8, 32, 64, 100, 256} {
		got := p.T(1) / runSynchronous(p, P).T
		want := p.Speedup(float64(P))
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("P=%d: sync speedup %v vs theory %v", P, got, want)
		}
	}
}

func TestAsyncNeverSlowerThanSynchronous(t *testing.T) {
	// The synchronous schedule idles machines at tick boundaries; the
	// asynchronous queues cannot do worse (the paper's footnote 3: the
	// synchronous estimate "is an upper bound").
	for _, c := range []struct {
		p Params
		c Cluster
	}{
		{Params{N: 50000, M: 32, E: 1, TWr: 1, TWc: 100, TZr: 10}, Cluster{P: 8, Seed: 1}},
		{Params{N: 20000, M: 7, E: 2, TWr: 1, TWc: 1000, TZr: 1}, Cluster{P: 12, Seed: 2}}, // M not divisible by P
		{Params{N: 50000, M: 8, E: 1, TWr: 1, TWc: 2000, TZr: 1}, Cluster{P: 32, Seed: 3}}, // P >> M
	} {
		async := c.p.Simulate(c.c).T
		sync := runSynchronous(c.p, c.c.P).T
		if async > sync*(1+1e-9) {
			t.Fatalf("async T=%v exceeds synchronous bound %v (%+v on %+v)", async, sync, c.p, c.c)
		}
	}
}
