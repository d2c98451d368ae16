package macnet

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sgd"
	"repro/internal/vec"
)

// toyRegression builds a smooth target y = σ-shaped function of x in (0,1).
func toyRegression(n int, seed int64) (xs, ys *vec.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	xs = vec.NewMatrix(n, 2)
	ys = vec.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		xs.Set(i, 0, a)
		xs.Set(i, 1, b)
		ys.Set(i, 0, Sigmoid(2*a-b))
	}
	return xs, ys
}

func TestForwardShapesAndRange(t *testing.T) {
	n := NewNet([]int{3, 4, 2})
	n.InitRandom(rand.New(rand.NewSource(1)), 0.5)
	out := n.Forward([]float64{1, -1, 0.5}, nil)
	if len(out) != 2 {
		t.Fatalf("output dim %d", len(out))
	}
	for _, v := range out {
		if v <= 0 || v >= 1 {
			t.Fatalf("sigmoid output %v out of (0,1)", v)
		}
	}
}

func TestActivationsMatchForward(t *testing.T) {
	n := NewNet([]int{2, 3, 3, 1})
	n.InitRandom(rand.New(rand.NewSource(2)), 0.5)
	x := []float64{0.3, -0.7}
	hidden, out := n.Activations(x)
	if len(hidden) != 2 {
		t.Fatalf("hidden layers %d", len(hidden))
	}
	fw := n.Forward(x, nil)
	if math.Abs(fw[0]-out[0]) > 1e-15 {
		t.Fatal("Activations output disagrees with Forward")
	}
}

func TestPenaltyEqualsNestedAtForwardCoords(t *testing.T) {
	// With z = activations, the constraints hold and E_Q = nested error for
	// any μ (the warm-start property of eq. 5/6).
	n := NewNet([]int{2, 4, 1})
	n.InitRandom(rand.New(rand.NewSource(3)), 0.8)
	xs, ys := toyRegression(30, 4)
	c := NewCoordsFromForward(n, xs)
	nested := n.NestedError(xs, ys)
	for _, mu := range []float64{0.1, 1, 100} {
		eq := penaltyError(n, xs, ys, c, mu)
		if math.Abs(eq-nested) > 1e-9 {
			t.Fatalf("mu=%v: EQ %v != nested %v", mu, eq, nested)
		}
	}
}

func TestZStepPointDecreasesObjective(t *testing.T) {
	n := NewNet([]int{2, 5, 1})
	n.InitRandom(rand.New(rand.NewSource(5)), 1)
	xs, ys := toyRegression(10, 6)
	c := NewCoordsFromForward(n, xs)
	mu := 0.5
	row := func(i int) []float64 {
		var out []float64
		for _, z := range c.Z {
			out = append(out, z.Row(i)...)
		}
		return out
	}
	// The second pass starts near a minimum, where a step can fail to
	// improve and leave the coordinates where they were.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < xs.Rows; i++ {
			before, was := pointPenalty(n, xs.Row(i), ys.Row(i), c, i, mu), row(i)
			after, moved := ZStepPoint(n, xs.Row(i), ys.Row(i), c, i, mu, 20)
			if after > before+1e-12 {
				t.Fatalf("point %d: Z step increased objective %v -> %v", i, before, after)
			}
			if changed := !slices.Equal(was, row(i)); moved != changed {
				t.Fatalf("point %d: ZStepPoint reported moved=%v, coordinates changed=%v", i, moved, changed)
			}
		}
	}
}

func TestZStepGradientMatchesFiniteDifference(t *testing.T) {
	n := NewNet([]int{2, 3, 2, 1})
	n.InitRandom(rand.New(rand.NewSource(7)), 0.7)
	xs, ys := toyRegression(3, 8)
	c := NewCoordsFromForward(n, xs)
	mu := 0.3
	i := 1
	grads := [][]float64{make([]float64, 3), make([]float64, 2)}
	zGrad(n, xs.Row(i), ys.Row(i), c, i, mu, grads)
	const h = 1e-6
	for layer := 0; layer < 2; layer++ {
		z := c.Z[layer].Row(i)
		for d := range z {
			orig := z[d]
			z[d] = orig + h
			up := pointPenalty(n, xs.Row(i), ys.Row(i), c, i, mu)
			z[d] = orig - h
			dn := pointPenalty(n, xs.Row(i), ys.Row(i), c, i, mu)
			z[d] = orig
			fd := (up - dn) / (2 * h)
			if math.Abs(fd-grads[layer][d]) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("layer %d dim %d: grad %v vs fd %v", layer, d, grads[layer][d], fd)
			}
		}
	}
}

func TestUnitSGDStepReducesUnitLoss(t *testing.T) {
	n := NewNet([]int{2, 1}) // single unit
	n.InitRandom(rand.New(rand.NewSource(9)), 0.1)
	unit := &unitSub{w: n.Ws[0].Row(0), eta: 1} // aliases the net's weights
	in := []float64{1, -0.5}
	target := 0.9
	lossOf := func() float64 {
		out := n.Forward(in, nil)
		d := out[0] - target
		return d * d
	}
	before := lossOf()
	for i := 0; i < 50; i++ {
		unit.step(in, target)
	}
	if lossOf() >= before {
		t.Fatalf("unit SGD did not reduce loss: %v -> %v", before, lossOf())
	}
}

// sameBits reports whether a and b have one shape and bit-identical entries.
// Unlike a max-abs-difference test it cannot pass on NaN entries.
func sameBits(a, b *vec.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// referenceMAC is serial MAC for the net on one machine (§3.2), the oracle
// one-machine ParMAC must reproduce: each iteration trains every unit by
// wEpochs in-order SGD passes over the points (hidden units fit the
// coordinates, output units the targets), then minimises each point's
// eq. (6) terms over its coordinates, then multiplies μ by cfg.MuFactor.
// It trains n in place and returns the coordinates.
func referenceMAC(n *Net, xs, ys *vec.Matrix, cfg ParMACConfig, iters, wEpochs int) *Coords {
	coords := NewCoordsFromForward(n, xs)
	k := n.K()
	order := sgd.Order(xs.Rows, false, nil)
	mu := cfg.Mu0
	for it := 0; it < iters; it++ {
		for ep := 0; ep < wEpochs; ep++ {
			for _, u := range n.Units() {
				unit := &unitSub{w: n.Ws[u.Layer].Row(u.Unit), eta: cfg.Eta}
				for _, i := range order {
					in := xs.Row(i)
					if u.Layer > 0 {
						in = coords.Z[u.Layer-1].Row(i)
					}
					var target float64
					if u.Layer < k {
						target = coords.Z[u.Layer].At(i, u.Unit)
					} else {
						target = ys.At(i, u.Unit)
					}
					unit.step(in, target)
				}
			}
		}
		for i := 0; i < xs.Rows; i++ {
			ZStepPoint(n, xs.Row(i), ys.Row(i), coords, i, mu, cfg.ZIters)
		}
		mu *= cfg.MuFactor
	}
	return coords
}

// penaltyError is the quadratic-penalty objective of eq. (6) over a set of
// points, summed in point order: the oracle for the E_Q a Z step reports.
func penaltyError(n *Net, xs, ys *vec.Matrix, c *Coords, mu float64) float64 {
	var total float64
	for i := 0; i < xs.Rows; i++ {
		total += pointPenalty(n, xs.Row(i), ys.Row(i), c, i, mu)
	}
	return total
}

// fleet is a coordinator Problem and the Problems of the machines an engine
// launched for it, by shard: the trained coordinates live on the machines.
type fleet struct {
	prob     *ParMACProblem
	machines map[int]*ParMACProblem
}

func newFleet(p *ParMACProblem) *fleet {
	return &fleet{prob: p, machines: make(map[int]*ParMACProblem)}
}

// machine is the engine's per-machine factory: prob.Machine, recorded.
func (f *fleet) machine(i int) core.Problem {
	m := f.prob.Machine(i).(*ParMACProblem)
	f.machines[i] = m
	return m
}

// shard is shard i as its machine holds it.
func (f *fleet) shard(i int) *NetShard { return f.machines[i].shards[i] }

// assembledNet is the net of the coordinator's synced submodels.
func (f *fleet) assembledNet() *Net { return assembleNet(f.prob.dims, f.prob.Submodels()) }

// penaltyAndNested evaluates E_Q (at the coordinator's μ) and the nested
// error of the coordinator's net over the machines' shards, summed in shard
// order: the oracle for the curve the machines' Z steps report.
func (f *fleet) penaltyAndNested() (eq, nested float64) {
	net := f.assembledNet()
	for i := range f.prob.shards {
		sh := f.shard(i)
		eq += penaltyError(net, sh.X, sh.Y, sh.C, f.prob.Mu())
		nested += net.NestedError(sh.X, sh.Y)
	}
	return eq, nested
}

// runOneMachine trains start with ParMAC on a single machine without
// shuffling and returns the problem with its machine.
func runOneMachine(start *Net, xs, ys *vec.Matrix, cfg ParMACConfig, iters, epochs int, seed int64) *fleet {
	f := newFleet(NewParMACProblem(start, xs, ys, dataset.ShardIndices(xs.Rows, 1, nil), cfg))
	eng := core.New(f.prob, core.Config{P: 1, Epochs: epochs, Seed: seed}, f.machine)
	defer eng.Shutdown()
	eng.Run(iters)
	return f
}

// TestParMACOneMachineIsMAC: ParMAC on one machine is MAC — the same unit
// updates in the same order and the same per-point Z steps — so the weights
// and coordinates match the serial reference bit for bit.
func TestParMACOneMachineIsMAC(t *testing.T) {
	cases := []struct {
		dims           []int
		n, e, iters    int
		dataSeed, seed int64
	}{
		{[]int{2, 6, 1}, 200, 3, 8, 10, 11},
		{[]int{2, 6, 4, 1}, 300, 3, 10, 20, 21},
		{[]int{2, 5, 3, 1}, 150, 2, 5, 30, 31},
	}
	cfg := ParMACConfig{Mu0: 1, MuFactor: 2, Eta: 1, ZIters: 10}
	for _, tc := range cases {
		xs, ys := toyRegression(tc.n, tc.dataSeed)
		start := NewNet(tc.dims)
		start.InitRandom(rand.New(rand.NewSource(tc.seed)), 0.3)
		f := runOneMachine(start, xs, ys, cfg, tc.iters, tc.e, tc.seed)

		ref := NewNet(tc.dims)
		for k, w := range start.Ws {
			copy(ref.Ws[k].Data, w.Data)
		}
		coords := referenceMAC(ref, xs, ys, cfg, tc.iters, tc.e)

		got := f.assembledNet()
		for k := range ref.Ws {
			if sameBits(got.Ws[k], start.Ws[k]) {
				t.Fatalf("dims %v layer %d: training left the weights unchanged", tc.dims, k)
			}
			if !sameBits(got.Ws[k], ref.Ws[k]) {
				t.Fatalf("dims %v layer %d: P=1 ParMAC weights differ from serial MAC", tc.dims, k)
			}
		}
		for layer, z := range coords.Z {
			if !sameBits(f.shard(0).C.Z[layer], z) {
				t.Fatalf("dims %v layer %d: P=1 ParMAC coordinates differ from serial MAC", tc.dims, layer)
			}
		}
	}
}

func TestParMACOneMachineReducesNestedError(t *testing.T) {
	xs, ys := toyRegression(200, 10)
	start := NewNet([]int{2, 6, 1})
	start.InitRandom(rand.New(rand.NewSource(11)), 0.3)
	before := start.NestedError(xs, ys)
	f := runOneMachine(start, xs, ys, ParMACConfig{Mu0: 1, MuFactor: 2, Eta: 1, ZIters: 10}, 8, 3, 11)
	_, after := f.penaltyAndNested()
	t.Logf("nested error %v -> %v", before, after)
	if after >= before {
		t.Fatalf("MAC did not reduce the nested error: %v -> %v", before, after)
	}
	if after > 0.5*before {
		t.Fatalf("MAC reduction too weak: %v -> %v", before, after)
	}
}

func TestParMACNetProblem(t *testing.T) {
	xs, ys := toyRegression(240, 14)
	start := NewNet([]int{2, 6, 1})
	start.InitRandom(rand.New(rand.NewSource(15)), 0.3)
	nestedBefore := start.NestedError(xs, ys)

	shards := dataset.ShardIndices(240, 3, nil)
	prob := NewParMACProblem(start, xs, ys, shards, ParMACConfig{Mu0: 1, MuFactor: 2, Eta: 1, ZIters: 10})
	if len(prob.Submodels()) != 7 { // 6 hidden + 1 output unit
		t.Fatalf("submodels = %d, want 7", len(prob.Submodels()))
	}
	f := newFleet(prob)
	eng := core.New(prob, core.Config{P: 3, Epochs: 2, Seed: 15}, f.machine)
	defer eng.Shutdown()
	eng.Run(8)
	_, nestedAfter := f.penaltyAndNested()
	t.Logf("ParMAC nested error %v -> %v", nestedBefore, nestedAfter)
	if nestedAfter >= nestedBefore {
		t.Fatalf("ParMAC did not reduce the nested error: %v -> %v", nestedBefore, nestedAfter)
	}
}

func TestParMACNetDeterministic(t *testing.T) {
	xs, ys := toyRegression(90, 16)
	run := func() float64 {
		start := NewNet([]int{2, 4, 1})
		start.InitRandom(rand.New(rand.NewSource(17)), 0.3)
		shards := dataset.ShardIndices(90, 2, nil)
		prob := NewParMACProblem(start, xs, ys, shards, ParMACConfig{Mu0: 1, Eta: 1})
		f := newFleet(prob)
		eng := core.New(prob, core.Config{P: 2, Epochs: 1, Seed: 17}, f.machine)
		defer eng.Shutdown()
		eng.Run(3)
		_, nested := f.penaltyAndNested()
		return nested
	}
	if run() != run() {
		t.Fatal("ParMAC net training must be deterministic without shuffle")
	}
}

// TestIterationCurveMatchesOracle: the learning curve the machines' Z steps
// report (IterationResult.EQ, EBA: E_Q and the nested error) equals the
// penaltyAndNested oracle over the machines' shards bit for bit, every
// iteration, on one and three machines.
func TestIterationCurveMatchesOracle(t *testing.T) {
	xs, ys := toyRegression(150, 23)
	for _, p := range []int{1, 3} {
		start := NewNet([]int{2, 5, 3, 1})
		start.InitRandom(rand.New(rand.NewSource(24)), 0.3)
		prob := NewParMACProblem(start, xs, ys, dataset.ShardIndices(xs.Rows, p, nil), ParMACConfig{
			Mu0: 1, MuFactor: 2, Eta: 1, ZIters: 6,
		})
		f := newFleet(prob)
		eng := core.New(prob, core.Config{P: p, Epochs: 2, Seed: 24}, f.machine)
		for it := 0; it < 4; it++ {
			res := eng.Iterate()
			eq, nested := f.penaltyAndNested()
			if math.Float64bits(res.EQ) != math.Float64bits(eq) || math.Float64bits(res.EBA) != math.Float64bits(nested) {
				t.Fatalf("P=%d iter %d: curve (%v, %v), oracle (%v, %v)", p, it, res.EQ, res.EBA, eq, nested)
			}
		}
		eng.Shutdown()
	}
}

func TestAssembleNetRoundTrip(t *testing.T) {
	xs, ys := toyRegression(20, 18)
	start := NewNet([]int{2, 3, 1})
	start.InitRandom(rand.New(rand.NewSource(19)), 0.5)
	prob := NewParMACProblem(start, xs, ys, dataset.ShardIndices(20, 1, nil), ParMACConfig{})
	back := newFleet(prob).assembledNet()
	for k := range start.Ws {
		if !sameBits(start.Ws[k], back.Ws[k]) {
			t.Fatalf("layer %d weights lost in round trip", k)
		}
	}
}
