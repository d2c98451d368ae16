package binauto

import (
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pca"
	"repro/internal/retrieval"
	"repro/internal/sgd"
	"repro/internal/svm"
	"repro/internal/vec"
)

// This file adapts the binary autoencoder to the ParMAC engine (§4): the L
// per-bit SVMs and the decoder become circulating core.Submodels, each data
// shard keeps its own auxiliary codes, and the Z step runs shard-locally.
//
// The decoder's D single-dimension regressors are grouped into L circulating
// units of ≈D/L dimensions each, so the effective number of equal-size
// submodels is M = 2L, the figure §5.4 uses in the speedup model.
//
// A shard owns its rows: on its first read it copies them out of the
// dataset, contiguous and in shard order, so a visit streams through one
// block however the rows lay scattered in the dataset. A visit converts
// each feature only where it is used (§8.4): an encoder's η0 calibration
// and SGD pass run svm.StepBytes/MarginBytes over a byte-backed shard's
// stored rows through the dataset's dequantisation table, and a decoder
// group reads only the dimensions it owns and, since z is binary, walks only
// the weight rows of the set bits of the point's packed code word, once per
// block of up to eight owned dimensions held in registers. Every update
// keeps its expression and per-element summation order, and the terms the
// decoder skips are exact zeros (see decoderSub.step for when that holds),
// so a visit is bit for bit the one over Point copies of the dataset's rows
// that visit_test.go keeps as the reference.

// Shard is one machine's portion of the data — rows idx of a dataset — and
// its auxiliary coordinates. The codes never leave the shard; only
// submodels move (§4.1). The rows are gathered on the shard's first read
// (rows), not when the problem is built: a process holding every machine's
// problem pays only for the shards it trains on.
type Shard struct {
	ds  *dataset.Dataset
	idx []int // shard point k is row idx[k] of ds
	Z   *retrieval.Codes

	gather sync.Once
	local  *dataset.Dataset // rows idx of ds in shard order, once gathered

	eq, eba float64 // the shard's objectives after its last Z step
}

// rows returns the shard's own copy of its rows, point k at row k, gathering
// it on the first call. Every read of the data goes through it; the Z step
// calls it from concurrent goroutines.
func (s *Shard) rows() *dataset.Dataset {
	s.gather.Do(func() { s.local = s.ds.Subset(s.idx) })
	return s.local
}

// NumPoints implements core.Shard. It never gathers the rows.
func (s *Shard) NumPoints() int { return len(s.idx) }

// Objectives implements core.ObjectiveShard: E_Q and E_BA over the shard's
// points, as its last Z step left them.
func (s *Shard) Objectives() (eq, eba float64) { return s.eq, s.eba }

// Point writes shard point i into dst (sgd.Points, for the Z step, which
// also scores the shard).
func (s *Shard) Point(i int, dst []float64) []float64 { return s.rows().Point(i, dst) }

// visitDims calls f(z, x) for each shard point i of order, in order: z is
// the point's packed code word (bit l = z_l; checkCodeLength keeps L ≤ 64)
// and x[j] its feature dims[j]. Only the listed features are read —
// quantised ones through the dataset's dequantisation table, float ones
// from the aliased row — and the storage is tested once per call. x is
// reused between calls of f.
func (s *Shard) visitDims(order, dims []int, f func(z uint64, x []float64)) {
	x := make([]float64, len(dims))
	rows := s.rows()
	if deq := rows.Dequant(); deq != nil {
		for _, i := range order {
			row := rows.ByteRow(i)
			for j, dim := range dims {
				x[j] = deq[row[dim]]
			}
			f(s.Z.Word64(i), x)
		}
		return
	}
	for _, i := range order {
		row := rows.Point(i, nil)
		for j, dim := range dims {
			x[j] = row[dim]
		}
		f(s.Z.Word64(i), x)
	}
}

// ParMACConfig parameterises the distributed BA problem. The decoder always
// circulates as L groups of ≈D/L output dimensions (§5.4's equal-size
// grouping), so the problem has 2L submodels.
type ParMACConfig struct {
	L        int
	Mu0      float64
	MuFactor float64

	SVMLambda float64

	// Parallel is the number of goroutines each machine uses for its
	// shard-local Z step: 0 or 1 runs serially, < 0 uses every core
	// (GOMAXPROCS). Points are independent, so any value produces codes
	// bit-identical to the serial pass.
	Parallel int

	ZMethod ZMethod
	Seed    int64

	// InitZ overrides the tPCA code initialisation (optional).
	InitZ *retrieval.Codes
}

// ParMACProblem implements core.Problem for the binary autoencoder; its
// core.Adapter holds the encoders (IDs 0..L-1), the decoder groups and μ.
type ParMACProblem struct {
	core.Adapter
	cfg    ParMACConfig
	d      int
	shards []*Shard
}

// NewParMACProblem builds the distributed BA problem over the given dataset
// and shard index lists (e.g. from dataset.ShardIndices). Codes are
// initialised with truncated PCA fit on a 2000-point subsample
// (pca.InitialCodes) unless cfg.InitZ is given (indexed like ds).
func NewParMACProblem(ds *dataset.Dataset, shardIdx [][]int, cfg ParMACConfig) *ParMACProblem {
	if cfg.L <= 0 {
		panic("binauto: ParMACConfig.L required")
	}
	if cfg.L > ds.D {
		panic("binauto: a binary autoencoder needs L <= D (paper §3.1: L < D bits)")
	}
	// Refuse what the first Z step would, before a whole W step runs.
	checkCodeLength(cfg.L, cfg.ZMethod)
	if cfg.Mu0 <= 0 {
		cfg.Mu0 = 1e-4
	}
	if cfg.SVMLambda <= 0 {
		cfg.SVMLambda = 1e-5
	}

	initZ := cfg.InitZ
	if initZ == nil {
		initZ, _ = pca.InitialCodes(ds, cfg.L, 2000, cfg.Seed)
	}

	p := &ParMACProblem{cfg: cfg, d: ds.D}
	for _, idx := range shardIdx {
		z := retrieval.NewCodes(len(idx), cfg.L)
		for k, i := range idx {
			z.CopyCode(k, initZ, i)
		}
		p.shards = append(p.shards, &Shard{ds: ds, idx: idx, Z: z})
	}

	// Encoder submodels: IDs 0..L-1.
	var subs []core.Submodel
	for l := 0; l < cfg.L; l++ {
		subs = append(subs, &encoderSub{
			id: l, bit: l, svm: svm.NewLinear(ds.D, cfg.SVMLambda),
		})
	}
	// Decoder group submodels: IDs L..2L-1, dimensions dealt round-robin so
	// groups are equal-sized.
	groups := make([][]int, cfg.L)
	for d := 0; d < ds.D; d++ {
		groups[d%cfg.L] = append(groups[d%cfg.L], d)
	}
	for g, dims := range groups {
		subs = append(subs, newDecoderSub(cfg.L+g, cfg.L, dims))
	}
	p.Adapter = core.NewAdapter(subs, cfg.Mu0, cfg.MuFactor)
	return p
}

// AddShard appends a shard holding rows idx of ds (for streaming: a newly
// added machine's data). The new points get codes from the current model's
// hash — matching §4.3 ("creating within that machine coordinate values,
// e.g. by applying the nested model to x").
func (p *ParMACProblem) AddShard(ds *dataset.Dataset, idx []int) int {
	sh := &Shard{ds: ds, idx: idx}
	sh.Z = p.AssembleModel().Encode(sh, 1)
	p.shards = append(p.shards, sh)
	return len(p.shards) - 1
}

// Machine builds the Problem of the machine serving shard i (core.New's
// per-machine factory): the shared dataset, a copy of the shard's current
// codes (after AddShard, those the current model gave the new points) and no
// submodels, which the engine sends. The shard gathers its rows on first read.
func (p *ParMACProblem) Machine(i int) core.Problem {
	sh, z := p.shards[i], *p.shards[i].Z
	z.Data = append([]uint64(nil), z.Data...)
	m := &ParMACProblem{Adapter: core.NewAdapter(nil, p.cfg.Mu0, p.cfg.MuFactor), cfg: p.cfg, d: p.d}
	m.shards = make([]*Shard, len(p.shards))
	m.shards[i] = &Shard{ds: sh.ds, idx: sh.idx, Z: &z}
	return m
}

// NumShards implements core.Problem.
func (p *ParMACProblem) NumShards() int { return len(p.shards) }

// Shard implements core.Problem.
func (p *ParMACProblem) Shard(i int) core.Shard { return p.shards[i] }

// OnIterationStart advances μ (core.Adapter) and re-arms the SGD step-size
// auto-tuning (§8.1) on the current submodels.
func (p *ParMACProblem) OnIterationStart(iter int) {
	p.Adapter.OnIterationStart(iter)
	for _, sm := range p.Submodels() {
		switch s := sm.(type) {
		case *encoderSub:
			s.tuned = false
		case *decoderSub:
			s.tuned = false
		}
	}
}

// ZStep implements core.Problem: solve the binary proximal operator for
// every shard point, with cfg.Parallel goroutines over the shard, and leave
// the shard's E_Q and E_BA on it (Shard.Objectives). The solver
// construction — decoder Gram matrix, Cholesky factorisation, encoder
// gathering — is hoisted into a ZKernel that every machine builds from its
// own copy of the model, once per Z step.
func (p *ParMACProblem) ZStep(shard int, model []core.Submodel) int {
	sh := p.shards[shard]
	k := NewZKernel(assembleModel(p.cfg.L, p.d, model), p.Mu(), p.cfg.ZMethod)
	var changed int
	changed, sh.eq, sh.eba = k.Run(sh, sh.Z, p.cfg.Parallel)
	return changed
}

// AssembleModel builds a *Model from the problem's authoritative submodels
// (valid between engine iterations), for evaluation.
func (p *ParMACProblem) AssembleModel() *Model {
	return assembleModel(p.cfg.L, p.d, p.Submodels())
}

// assembleModel reconstructs a full BA from submodels indexed by ID.
func assembleModel(l, d int, model []core.Submodel) *Model {
	m := &Model{Dec: NewDecoder(l, d)}
	m.Enc = make([]*svm.Linear, l)
	for _, sm := range model {
		switch s := sm.(type) {
		case *encoderSub:
			m.Enc[s.bit] = s.svm
		case *decoderSub:
			for j, dim := range s.dims {
				for row := 0; row < l; row++ {
					m.Dec.W.Set(row, dim, s.w.At(row, j))
				}
				m.Dec.C[dim] = s.c[j]
			}
		default:
			panic("binauto: foreign submodel in model")
		}
	}
	for _, e := range m.Enc {
		if e == nil {
			panic("binauto: incomplete encoder in model")
		}
	}
	return m
}

// ---------------------------------------------------------------------------
// encoder submodel: one per-bit linear SVM (hash function h_l)
// ---------------------------------------------------------------------------

type encoderSub struct {
	id    int
	bit   int
	svm   *svm.Linear
	tuned bool
}

// ID implements core.Submodel.
func (e *encoderSub) ID() int { return e.id }

// TrainOn runs one SGD pass over the shard, predicting bit `bit` of the
// shard's codes from the features (the "fit SVM to (X, Z_l)" of Fig. 1,
// executed stochastically as the submodel circulates). The η0 calibration
// and the pass read the shard's rows in place.
func (e *encoderSub) TrainOn(shard core.Shard, order []int) {
	rows := encoderRows{shard.(*Shard), e.bit}
	if !e.tuned {
		e.svm.AutoTune(rows)
		e.tuned = true
	}
	rows.Pass(e.svm, order)
}

// encoderRows is a shard as one encoder's svm.Samples: the shard's rows
// labelled ±1 by bit `bit` of its codes. The shard's quantised rows are read
// in place by StepBytes/MarginBytes through the dataset's dequantisation
// table, its float rows are aliased for StepFused/Margin; each call tests the
// storage once.
type encoderRows struct {
	sh  *Shard
	bit int
}

func (r encoderRows) NumPoints() int { return r.sh.NumPoints() }

// label is the ±1 target of shard point i.
func (r encoderRows) label(i int) float64 {
	if r.sh.Z.Bit(i, r.bit) {
		return 1
	}
	return -1
}

// Pass implements svm.Samples.
func (r encoderRows) Pass(m *svm.Linear, order []int) {
	rows := r.sh.rows()
	if deq := rows.Dequant(); deq != nil {
		for _, i := range order {
			m.StepBytes(rows.ByteRow(i), deq, r.label(i), m.Sched.Next())
		}
		return
	}
	for _, i := range order {
		m.StepFused(rows.Point(i, nil), r.label(i), m.Sched.Next())
	}
}

// Hinge implements svm.Samples.
func (r encoderRows) Hinge(m *svm.Linear, sample []int) float64 {
	rows := r.sh.rows()
	var sum float64
	add := func(i int, margin float64) {
		if h := 1 - r.label(i)*margin; h > 0 {
			sum += h
		}
	}
	if deq := rows.Dequant(); deq != nil {
		for _, i := range sample {
			add(i, m.MarginBytes(rows.ByteRow(i), deq))
		}
		return sum
	}
	for _, i := range sample {
		add(i, m.Margin(rows.Point(i, nil)))
	}
	return sum
}

// Clone implements core.Submodel.
func (e *encoderSub) Clone() core.Submodel {
	return &encoderSub{id: e.id, bit: e.bit, svm: e.svm.Clone(), tuned: e.tuned}
}

// Bytes implements core.Submodel.
func (e *encoderSub) Bytes() int { return e.svm.Bytes() }

// ---------------------------------------------------------------------------
// decoder submodel: a group of single-dimension linear regressors (§5.4)
// ---------------------------------------------------------------------------

type decoderSub struct {
	id    int
	dims  []int       // global output dimensions owned by this group
	w     *vec.Matrix // L×len(dims): column j = weights of dimension dims[j]
	c     []float64
	eta   float64 // η0 of the last auto-tune: plain SGD (λ = 0) steps at η0 throughout
	tuned bool
}

func newDecoderSub(id, l int, dims []int) *decoderSub {
	return &decoderSub{
		id: id, dims: dims,
		w: vec.NewMatrix(l, len(dims)), c: make([]float64, len(dims)),
		eta: 1e-2,
	}
}

// ID implements core.Submodel.
func (d *decoderSub) ID() int { return d.id }

// TrainOn runs one SGD pass fitting x_dim ≈ Σ_l z_l·w_l + c for each owned
// dimension (the decoder half of the W step, trained stochastically),
// reading only the owned features of each point.
func (d *decoderSub) TrainOn(shard core.Shard, order []int) {
	sh := shard.(*Shard)
	if !d.tuned {
		d.autoTune(sh, order)
		d.tuned = true
	}
	pred := make([]float64, len(d.dims))
	sh.visitDims(order, d.dims, func(z uint64, x []float64) { d.step(z, x, d.eta, pred) })
}

// predict writes c + Wᵀz for the owned dimensions of packed code z into
// pred. It takes the dimensions in blocks of eight, then four, then one:
// per block it walks z's set bits, lowest first, adding the block's slice of
// each set bit's weight row into locals that start at c, so pred[j] sums
// w_lj in bit order l = 0, 1, … as Model.EBA does.
func (d *decoderSub) predict(z uint64, pred []float64) {
	g, w, c := len(d.c), d.w.Data, d.c
	j := 0
	for ; j+8 <= g; j += 8 {
		p0, p1, p2, p3, p4, p5, p6, p7 := c[j], c[j+1], c[j+2], c[j+3], c[j+4], c[j+5], c[j+6], c[j+7]
		for b := z; b != 0; b &= b - 1 {
			r := w[bits.TrailingZeros64(b)*g+j:]
			r = r[:8]
			p0, p1, p2, p3 = p0+r[0], p1+r[1], p2+r[2], p3+r[3]
			p4, p5, p6, p7 = p4+r[4], p5+r[5], p6+r[6], p7+r[7]
		}
		p := pred[j : j+8]
		p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7] = p0, p1, p2, p3, p4, p5, p6, p7
	}
	for ; j+4 <= g; j += 4 {
		p0, p1, p2, p3 := c[j], c[j+1], c[j+2], c[j+3]
		for b := z; b != 0; b &= b - 1 {
			r := w[bits.TrailingZeros64(b)*g+j:]
			r = r[:4]
			p0, p1, p2, p3 = p0+r[0], p1+r[1], p2+r[2], p3+r[3]
		}
		p := pred[j : j+4]
		p[0], p[1], p[2], p[3] = p0, p1, p2, p3
	}
	for ; j < g; j++ {
		p := c[j]
		for b := z; b != 0; b &= b - 1 {
			p += w[bits.TrailingZeros64(b)*g+j]
		}
		pred[j] = p
	}
}

// step performs one SGD update on every owned dimension from packed code z
// and the owned features x (x[j] is dimension dims[j]):
// w_lj ← w_lj − η·err_j·z_l and c_j ← c_j − η·err_j, so only the rows of
// z's set bits move. It predicts into pred (scratch), then, per block of
// predict's, holds the block's errors η·err_j in locals and walks z's set
// bits once more, subtracting them from the block's slice of each row.
//
// This is bit for bit the dense update that multiplies every row by its 0/1
// z_l (visit_test.go's stepAt). A skipped term is 0·w = ±0, and adding ±0
// leaves a sum unchanged unless the sum is −0. c and w start at +0, and
// a − b is −0 only when a is −0, so c, every prediction and every weight
// stay ≠ −0. Once an error is not finite the dense update writes NaN into
// the 0-bit rows and this one leaves them alone; the model has diverged
// either way, and a diverging η0 trial scores a non-finite loss under both.
// Exactness also needs multiply-adds left unfused, which holds on amd64; on
// arm64, ppc64 and s390x Go may fuse them. The blocks change none of this:
// each element sees the same operations in the same order as in the dense
// update, only the order across elements differs, and no element's update
// reads another's.
func (d *decoderSub) step(z uint64, x []float64, eta float64, pred []float64) {
	d.predict(z, pred)
	g, w, c := len(d.c), d.w.Data, d.c
	j := 0
	for ; j+8 <= g; j += 8 {
		p, xs := pred[j:j+8], x[j:j+8]
		e0, e1, e2, e3 := eta*(p[0]-xs[0]), eta*(p[1]-xs[1]), eta*(p[2]-xs[2]), eta*(p[3]-xs[3])
		e4, e5, e6, e7 := eta*(p[4]-xs[4]), eta*(p[5]-xs[5]), eta*(p[6]-xs[6]), eta*(p[7]-xs[7])
		for b := z; b != 0; b &= b - 1 {
			r := w[bits.TrailingZeros64(b)*g+j:]
			r = r[:8]
			r[0], r[1], r[2], r[3] = r[0]-e0, r[1]-e1, r[2]-e2, r[3]-e3
			r[4], r[5], r[6], r[7] = r[4]-e4, r[5]-e5, r[6]-e6, r[7]-e7
		}
		cs := c[j : j+8]
		cs[0], cs[1], cs[2], cs[3] = cs[0]-e0, cs[1]-e1, cs[2]-e2, cs[3]-e3
		cs[4], cs[5], cs[6], cs[7] = cs[4]-e4, cs[5]-e5, cs[6]-e6, cs[7]-e7
	}
	for ; j+4 <= g; j += 4 {
		p, xs := pred[j:j+4], x[j:j+4]
		e0, e1, e2, e3 := eta*(p[0]-xs[0]), eta*(p[1]-xs[1]), eta*(p[2]-xs[2]), eta*(p[3]-xs[3])
		for b := z; b != 0; b &= b - 1 {
			r := w[bits.TrailingZeros64(b)*g+j:]
			r = r[:4]
			r[0], r[1], r[2], r[3] = r[0]-e0, r[1]-e1, r[2]-e2, r[3]-e3
		}
		cs := c[j : j+4]
		cs[0], cs[1], cs[2], cs[3] = cs[0]-e0, cs[1]-e1, cs[2]-e2, cs[3]-e3
	}
	for ; j < g; j++ {
		e := eta * (pred[j] - x[j])
		for b := z; b != 0; b &= b - 1 {
			w[bits.TrailingZeros64(b)*g+j] -= e
		}
		c[j] -= e
	}
}

// autoTune calibrates η0 on the leading sample of order (§8.1): each
// candidate trains a clone over the sample, scored by its mean squared error
// there.
func (d *decoderSub) autoTune(sh *Shard, order []int) {
	n := sgd.TuningSampleSize(sh.NumPoints())
	if n == 0 {
		return
	}
	sample := make([]int, n)
	copy(sample, order)
	pred := make([]float64, len(d.dims))
	d.eta = sgd.TuneEta0(1e-5, 4, 4, func(eta0 float64) float64 {
		trial := d.Clone().(*decoderSub)
		sh.visitDims(sample, d.dims, func(z uint64, x []float64) { trial.step(z, x, eta0, pred) })
		var total float64
		sh.visitDims(sample, d.dims, func(z uint64, x []float64) {
			trial.predict(z, pred)
			for j, p := range pred {
				e := p - x[j]
				total += 0.5 * e * e
			}
		})
		return total / float64(n)
	})
}

// Clone implements core.Submodel.
func (d *decoderSub) Clone() core.Submodel {
	return &decoderSub{
		id: d.id, dims: append([]int(nil), d.dims...),
		w: d.w.Clone(), c: vec.Clone(d.c),
		eta: d.eta, tuned: d.tuned,
	}
}

// Bytes implements core.Submodel.
func (d *decoderSub) Bytes() int { return 8 * (len(d.w.Data) + len(d.c)) }

var (
	_ core.Problem        = (*ParMACProblem)(nil)
	_ core.ObjectiveShard = (*Shard)(nil)
)
