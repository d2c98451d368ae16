package macnet

import (
	"repro/internal/core"
	"repro/internal/vec"
)

// This file adapts the K-layer MAC deep net to the ParMAC engine: every
// hidden/output unit becomes one circulating core.Submodel (its weight
// vector), matching the paper's description of the deep-net W step ("a
// separate minimisation over the weights of each hidden unit", §3.2), and
// each shard keeps the auxiliary activations of its own points.

// NetShard is one machine's inputs, targets and auxiliary coordinates.
type NetShard struct {
	X, Y *vec.Matrix
	C    *Coords

	eq, nested float64 // the shard's objectives after its last Z step
}

// NumPoints implements core.Shard.
func (s *NetShard) NumPoints() int { return s.X.Rows }

// Objectives implements core.ObjectiveShard: E_Q of eq. (6) and the nested
// error of eq. (4) over the shard's points, as its last Z step left them.
func (s *NetShard) Objectives() (eq, nested float64) { return s.eq, s.nested }

// unitSub is one unit's weight vector circulating through the ring.
type unitSub struct {
	id  int
	ref UnitRef
	w   []float64 // input weights plus trailing bias
	k   int       // hidden layer count of the net
	eta float64
}

// ID implements core.Submodel.
func (u *unitSub) ID() int { return u.id }

// TrainOn implements core.Submodel: one SGD pass of this unit's single-layer
// regression over the shard.
func (u *unitSub) TrainOn(shard core.Shard, order []int) {
	sh := shard.(*NetShard)
	for _, i := range order {
		var in []float64
		if u.ref.Layer == 0 {
			in = sh.X.Row(i)
		} else {
			in = sh.C.Z[u.ref.Layer-1].Row(i)
		}
		var target float64
		if u.ref.Layer < u.k {
			target = sh.C.Z[u.ref.Layer].At(i, u.ref.Unit)
		} else {
			target = sh.Y.At(i, u.ref.Unit)
		}
		u.step(in, target)
	}
}

// step performs one SGD update of the unit on sample (in, target): the
// squared loss ½(σ(w·[in;1]) − target)² — a single-layer, single-unit
// regression, trainable "with existing algorithms (logistic regression)".
func (u *unitSub) step(in []float64, target float64) {
	s := u.w[len(u.w)-1]
	for i, v := range in {
		s += u.w[i] * v
	}
	p := Sigmoid(s)
	g := (p - target) * p * (1 - p)
	for i, v := range in {
		u.w[i] -= u.eta * g * v
	}
	u.w[len(u.w)-1] -= u.eta * g
}

// Clone implements core.Submodel.
func (u *unitSub) Clone() core.Submodel {
	c := *u
	c.w = vec.Clone(u.w)
	return &c
}

// Bytes implements core.Submodel.
func (u *unitSub) Bytes() int { return 8 * len(u.w) }

// ParMACConfig parameterises the distributed net problem.
type ParMACConfig struct {
	Mu0      float64
	MuFactor float64
	Eta      float64
	ZIters   int
}

// ParMACProblem implements core.Problem for the K-layer net; its
// core.Adapter holds one submodel per hidden/output unit and μ.
type ParMACProblem struct {
	core.Adapter
	dims   []int
	shards []*NetShard
	cfg    ParMACConfig
}

// NewParMACProblem splits (xs, ys) into shards by the given index lists and
// initialises coordinates with the starting net's activations.
func NewParMACProblem(start *Net, xs, ys *vec.Matrix, shardIdx [][]int, cfg ParMACConfig) *ParMACProblem {
	if cfg.Mu0 <= 0 {
		cfg.Mu0 = 1
	}
	if cfg.Eta <= 0 {
		cfg.Eta = 0.5
	}
	if cfg.ZIters <= 0 {
		cfg.ZIters = 10
	}
	if start.K() == 0 {
		panic("macnet: ParMAC needs at least one hidden layer")
	}
	p := &ParMACProblem{dims: append([]int(nil), start.Dims...), cfg: cfg}
	for _, idx := range shardIdx {
		sx := vec.NewMatrix(len(idx), xs.Cols)
		sy := vec.NewMatrix(len(idx), ys.Cols)
		for k, i := range idx {
			copy(sx.Row(k), xs.Row(i))
			copy(sy.Row(k), ys.Row(i))
		}
		p.shards = append(p.shards, &NetShard{X: sx, Y: sy, C: NewCoordsFromForward(start, sx)})
	}
	var subs []core.Submodel
	for id, u := range start.Units() {
		row := start.Ws[u.Layer].Row(u.Unit)
		subs = append(subs, &unitSub{
			id: id, ref: u, w: vec.Clone(row), k: start.K(), eta: cfg.Eta,
		})
	}
	p.Adapter = core.NewAdapter(subs, cfg.Mu0, cfg.MuFactor)
	return p
}

// Machine builds the Problem of the machine serving shard i (the per-machine
// factory of core.New and NewOn): the shard's inputs and targets, shared, a
// copy of its current coordinates, and no submodels, which the engine sends.
func (p *ParMACProblem) Machine(i int) core.Problem {
	sh, c := p.shards[i], &Coords{}
	for _, z := range sh.C.Z {
		c.Z = append(c.Z, z.Clone())
	}
	m := &ParMACProblem{Adapter: core.NewAdapter(nil, p.cfg.Mu0, p.cfg.MuFactor), dims: p.dims, cfg: p.cfg}
	m.shards = make([]*NetShard, len(p.shards))
	m.shards[i] = &NetShard{X: sh.X, Y: sh.Y, C: c}
	return m
}

// NumShards implements core.Problem.
func (p *ParMACProblem) NumShards() int { return len(p.shards) }

// Shard implements core.Problem.
func (p *ParMACProblem) Shard(i int) core.Shard { return p.shards[i] }

// ZStep implements core.Problem: assemble the machine-local net and run the
// per-point generalised proximal operator over the shard, point by point.
// Unlike the binary autoencoder there is no Gram shortcut here — the sigmoid
// layers make the per-point objective nonlinear in z. Each point's E_Q and
// nested error are added to the shard's sums in point order
// (NetShard.Objectives).
func (p *ParMACProblem) ZStep(shard int, model []core.Submodel) int {
	net := assembleNet(p.dims, model)
	sh := p.shards[shard]
	mu := p.Mu()
	out := make([]float64, p.dims[len(p.dims)-1])
	changed := 0
	sh.eq, sh.nested = 0, 0
	for i := 0; i < sh.X.Rows; i++ {
		obj, moved := ZStepPoint(net, sh.X.Row(i), sh.Y.Row(i), sh.C, i, mu, p.cfg.ZIters)
		if moved {
			changed++
		}
		sh.eq += obj
		sh.nested += net.pointNested(sh.X.Row(i), sh.Y.Row(i), out)
	}
	return changed
}

func assembleNet(dims []int, model []core.Submodel) *Net {
	net := NewNet(dims)
	for _, sm := range model {
		u, ok := sm.(*unitSub)
		if !ok {
			panic("macnet: foreign submodel")
		}
		copy(net.Ws[u.ref.Layer].Row(u.ref.Unit), u.w)
	}
	return net
}

var (
	_ core.Problem        = (*ParMACProblem)(nil)
	_ core.ObjectiveShard = (*NetShard)(nil)
)
