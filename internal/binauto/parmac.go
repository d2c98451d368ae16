package binauto

import (
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/retrieval"
	"repro/internal/sgd"
	"repro/internal/svm"
	"repro/internal/vec"
)

// This file adapts the binary autoencoder to the ParMAC engine (§4): the L
// per-bit SVMs and the decoder become circulating core.Submodels, each data
// shard keeps its own auxiliary codes, and the Z step runs shard-locally.
//
// The decoder's D single-dimension regressors are grouped into DecoderGroups
// circulating units. With the default of L groups of ≈D/L dimensions each,
// the effective number of equal-size submodels is M = 2L, the figure §5.4
// uses in the speedup model.

// Shard is one machine's portion of the data and its auxiliary coordinates.
// The codes never leave the shard; only submodels move (§4.1).
type Shard struct {
	X sgd.Points
	Z *retrieval.Codes
}

// NumPoints implements core.Shard.
func (s *Shard) NumPoints() int { return s.X.NumPoints() }

// ParMACConfig parameterises the distributed BA problem.
type ParMACConfig struct {
	L        int
	Mu0      float64
	MuFactor float64

	SVMLambda float64
	DecLambda float64

	// DecoderGroups is the number of circulating decoder submodels the D
	// output dimensions are grouped into; 0 means L (§5.4's equal-size
	// grouping).
	DecoderGroups int

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

// ParMACProblem implements core.Problem for the binary autoencoder.
type ParMACProblem struct {
	cfg    ParMACConfig
	d      int
	shards []*Shard
	encs   []*encoderSub
	decs   []*decoderSub
	mu     float64

	// zk caches the per-iteration Z-step kernel: the assembled model, its
	// decoder Gram matrix and the Cholesky factor of the relaxed system are
	// built once per (model, μ) and shared by every machine's ZStep call —
	// in the in-process engine all P machines see value-identical models, so
	// without the cache each of them would redo the same factorisation.
	zk struct {
		sync.Mutex
		kernel *ZKernel
	}
}

// NewParMACProblem builds the distributed BA problem over the given dataset
// and shard index lists (e.g. from dataset.ShardIndices). Codes are
// initialised with truncated PCA on a subsample unless cfg.InitZ is given
// (indexed like ds).
func NewParMACProblem(ds *dataset.Dataset, shardIdx [][]int, cfg ParMACConfig) *ParMACProblem {
	if cfg.L <= 0 {
		panic("binauto: ParMACConfig.L required")
	}
	if cfg.L > ds.D {
		panic("binauto: a binary autoencoder needs L <= D (paper §3.1: L < D bits)")
	}
	if cfg.Mu0 <= 0 {
		cfg.Mu0 = 1e-4
	}
	if cfg.MuFactor <= 1 {
		cfg.MuFactor = 2
	}
	if cfg.SVMLambda <= 0 {
		cfg.SVMLambda = 1e-5
	}
	if cfg.DecoderGroups <= 0 {
		cfg.DecoderGroups = cfg.L
	}
	if cfg.DecoderGroups > ds.D {
		cfg.DecoderGroups = ds.D
	}

	initZ := cfg.InitZ
	if initZ == nil {
		initZ = initCodesTPCA(ds, cfg.L, cfg.Seed)
	}

	p := &ParMACProblem{cfg: cfg, d: ds.D, mu: cfg.Mu0}
	for _, idx := range shardIdx {
		z := retrieval.NewCodes(len(idx), cfg.L)
		for k, i := range idx {
			z.CopyCode(k, initZ, i)
		}
		p.shards = append(p.shards, &Shard{X: subsetPoints{ds, idx}, Z: z})
	}

	// Encoder submodels: IDs 0..L-1.
	for l := 0; l < cfg.L; l++ {
		p.encs = append(p.encs, &encoderSub{
			id: l, bit: l, svm: svm.NewLinear(ds.D, cfg.SVMLambda),
		})
	}
	// Decoder group submodels: IDs L..L+G-1, dimensions dealt round-robin so
	// groups are equal-sized.
	groups := make([][]int, cfg.DecoderGroups)
	for d := 0; d < ds.D; d++ {
		g := d % cfg.DecoderGroups
		groups[g] = append(groups[g], d)
	}
	for g, dims := range groups {
		p.decs = append(p.decs, newDecoderSub(cfg.L+g, cfg.L, dims, cfg.DecLambda))
	}
	return p
}

// AddShard appends a shard (for streaming: a newly added machine's data). The
// new points get codes from the current model's hash when a model is
// available, otherwise zero codes — matching §4.3 ("creating within that
// machine coordinate values, e.g. by applying the nested model to x").
func (p *ParMACProblem) AddShard(pts sgd.Points) int {
	z := retrieval.NewCodes(pts.NumPoints(), p.cfg.L)
	m := p.AssembleModel()
	buf := make([]float64, p.d)
	for i := 0; i < pts.NumPoints(); i++ {
		z.SetWord64(i, m.EncodePointWord(pts.Point(i, buf)))
	}
	p.shards = append(p.shards, &Shard{X: pts, Z: z})
	return len(p.shards) - 1
}

// Submodels implements core.Problem.
func (p *ParMACProblem) Submodels() []core.Submodel {
	out := make([]core.Submodel, 0, len(p.encs)+len(p.decs))
	for _, e := range p.encs {
		out = append(out, e)
	}
	for _, d := range p.decs {
		out = append(out, d)
	}
	return out
}

// NumShards implements core.Problem.
func (p *ParMACProblem) NumShards() int { return len(p.shards) }

// Shard implements core.Problem.
func (p *ParMACProblem) Shard(i int) core.Shard { return p.shards[i] }

// OnIterationStart advances the μ schedule (μ_i = μ0·aⁱ), re-arms the
// per-iteration SGD step-size auto-tuning (§8.1) and drops the cached Z-step
// kernel (the W step is about to change the model it was built from).
func (p *ParMACProblem) OnIterationStart(iter int) {
	p.mu = p.cfg.Mu0
	for i := 0; i < iter; i++ {
		p.mu *= p.cfg.MuFactor
	}
	for _, e := range p.encs {
		e.tuned = false
	}
	for _, d := range p.decs {
		d.tuned = false
	}
	p.zk.Lock()
	p.zk.kernel = nil
	p.zk.Unlock()
}

// Mu returns the current penalty parameter.
func (p *ParMACProblem) Mu() float64 { return p.mu }

// OnModelSync refreshes the problem's submodel references after the engine
// may have replaced one during fault recovery (core.ModelSyncHook).
func (p *ParMACProblem) OnModelSync(model []core.Submodel) {
	for _, sm := range model {
		switch s := sm.(type) {
		case *encoderSub:
			p.encs[s.bit] = s
		case *decoderSub:
			p.decs[s.id-p.cfg.L] = s
		}
	}
}

// ZStep implements core.Problem: solve the binary proximal operator for
// every shard point, with cfg.Parallel goroutines over the shard. The solver
// construction — decoder Gram matrix, Cholesky factorisation, encoder
// gathering — is hoisted into a kernel shared across machines: at the Z step
// every machine holds a value-identical model (the coordinator repairs stale
// copies when the W step drains), so the first caller builds the kernel and
// the rest reuse it.
func (p *ParMACProblem) ZStep(shard int, model []core.Submodel) int {
	k := p.zKernel(model)
	sh := p.shards[shard]
	return k.Run(sh.X, sh.Z, core.Cores(p.cfg.Parallel))
}

// zKernel returns the shared Z kernel for this machine's model, building it
// when none is cached. The value-identical-models assumption is checked, not
// trusted: the O(L·D) weight comparison is noise next to the O(L²·D)
// factorisation it saves, and a caller passing a genuinely different model
// (a custom driver outside the engine's repair protocol) gets a correct
// fresh kernel instead of silently stale codes.
func (p *ParMACProblem) zKernel(model []core.Submodel) *ZKernel {
	m := assembleModel(p.cfg.L, p.d, model)
	p.zk.Lock()
	defer p.zk.Unlock()
	if k := p.zk.kernel; k != nil && k.Mu == p.mu && modelsEqual(k.Model, m) {
		return k
	}
	p.zk.kernel = NewZKernel(m, p.mu, p.cfg.ZMethod)
	return p.zk.kernel
}

// modelsEqual reports whether two assembled BAs have identical parameters.
// The cached side is always NewZKernel's private snapshot, never a view of
// the live submodels, so in-place weight mutation shows up as a mismatch
// here rather than comparing aliased slices against themselves.
func modelsEqual(a, b *Model) bool {
	if a.L() != b.L() || a.D() != b.D() {
		return false
	}
	for l := range a.Enc {
		if a.Enc[l].B != b.Enc[l].B || !slices.Equal(a.Enc[l].W, b.Enc[l].W) {
			return false
		}
	}
	return slices.Equal(a.Dec.C, b.Dec.C) && slices.Equal(a.Dec.W.Data, b.Dec.W.Data)
}

// AssembleModel builds a *Model from the problem's authoritative submodels
// (valid between engine iterations), for evaluation.
func (p *ParMACProblem) AssembleModel() *Model {
	subs := p.Submodels()
	return assembleModel(p.cfg.L, p.d, subs)
}

// Stats computes the learning-curve quantities over all shards with the
// current model: E_Q with the current μ, E_BA, and total points.
func (p *ParMACProblem) Stats() (eq, eba float64) {
	m := p.AssembleModel()
	for _, sh := range p.shards {
		eq += m.EQ(sh.X, sh.Z, p.mu)
		eba += m.EBA(sh.X)
	}
	return eq, eba
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
	buf   []float64
}

// ID implements core.Submodel.
func (e *encoderSub) ID() int { return e.id }

// TrainOn runs one SGD pass over the shard, predicting bit `bit` of the
// shard's codes from the features (the "fit SVM to (X, Z_l)" of Fig. 1,
// executed stochastically as the submodel circulates).
func (e *encoderSub) TrainOn(shard core.Shard, order []int) {
	sh := shard.(*Shard)
	label := bitLabel(sh.Z, e.bit)
	if !e.tuned {
		e.svm.AutoTune(sh.X, label)
		e.tuned = true
	}
	if cap(e.buf) < len(e.svm.W) {
		e.buf = make([]float64, len(e.svm.W))
	}
	// Fused step: bit-for-bit TrainPass with one fewer walk over the weights.
	e.svm.TrainPassFused(sh.X, label, order, e.buf[:len(e.svm.W)])
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
	id     int
	dims   []int       // global output dimensions owned by this group
	w      *vec.Matrix // L×len(dims): column j = weights of dimension dims[j]
	c      []float64
	lambda float64
	sched  *sgd.Schedule
	tuned  bool
	zbuf   []float64
}

func newDecoderSub(id, l int, dims []int, lambda float64) *decoderSub {
	if lambda < 0 {
		lambda = 0
	}
	return &decoderSub{
		id: id, dims: dims,
		w: vec.NewMatrix(l, len(dims)), c: make([]float64, len(dims)),
		lambda: lambda,
		sched:  sgd.NewSchedule(1e-2, lambda),
	}
}

// ID implements core.Submodel.
func (d *decoderSub) ID() int { return d.id }

// TrainOn runs one SGD pass fitting x_dim ≈ Σ_l z_l·w_l + c for each owned
// dimension (the decoder half of the W step, trained stochastically).
func (d *decoderSub) TrainOn(shard core.Shard, order []int) {
	sh := shard.(*Shard)
	l := d.w.Rows
	if cap(d.zbuf) < l {
		d.zbuf = make([]float64, l)
	}
	z := d.zbuf[:l]
	xbuf := make([]float64, dimOf(sh.X))
	if !d.tuned {
		d.autoTune(sh, order)
		d.tuned = true
	}
	for _, i := range order {
		CodesPoints{sh.Z}.Point(i, z)
		x := sh.X.Point(i, xbuf)
		eta := d.sched.Next()
		d.step(z, x, eta)
	}
}

// step performs one SGD update on every owned dimension.
func (d *decoderSub) step(z, x []float64, eta float64) {
	l := d.w.Rows
	for j, dim := range d.dims {
		pred := d.c[j]
		for row := 0; row < l; row++ {
			pred += z[row] * d.w.At(row, j)
		}
		err := pred - x[dim]
		shrink := 1 - eta*d.lambda
		for row := 0; row < l; row++ {
			d.w.Set(row, j, d.w.At(row, j)*shrink-eta*err*z[row])
		}
		d.c[j] -= eta * err
	}
}

// loss is the mean squared error over the given sample.
func (d *decoderSub) loss(sh *Shard, idx []int) float64 {
	l := d.w.Rows
	z := make([]float64, l)
	xbuf := make([]float64, dimOf(sh.X))
	var total float64
	for _, i := range idx {
		CodesPoints{sh.Z}.Point(i, z)
		x := sh.X.Point(i, xbuf)
		for j, dim := range d.dims {
			pred := d.c[j]
			for row := 0; row < l; row++ {
				pred += z[row] * d.w.At(row, j)
			}
			e := pred - x[dim]
			total += 0.5 * e * e
		}
	}
	if len(idx) == 0 {
		return 0
	}
	return total / float64(len(idx))
}

// autoTune calibrates η0 on the leading sample (§8.1).
func (d *decoderSub) autoTune(sh *Shard, order []int) {
	n := sgd.TuningSampleSize(sh.NumPoints())
	if n == 0 {
		return
	}
	sample := make([]int, n)
	copy(sample, order[:min(n, len(order))])
	best := sgd.TuneEta0(1e-5, 4, 4, func(eta0 float64) float64 {
		trial := d.Clone().(*decoderSub)
		trial.sched = sgd.NewSchedule(eta0, d.lambda)
		l := trial.w.Rows
		z := make([]float64, l)
		xbuf := make([]float64, dimOf(sh.X))
		for _, i := range sample {
			CodesPoints{sh.Z}.Point(i, z)
			x := sh.X.Point(i, xbuf)
			trial.step(z, x, trial.sched.Next())
		}
		return trial.loss(sh, sample)
	})
	d.sched.Eta0 = best
	d.sched.Lambda = d.lambda
	d.sched.SetSteps(0)
}

// Clone implements core.Submodel.
func (d *decoderSub) Clone() core.Submodel {
	s := *d.sched
	return &decoderSub{
		id: d.id, dims: append([]int(nil), d.dims...),
		w: d.w.Clone(), c: vec.Clone(d.c),
		lambda: d.lambda, sched: &s, tuned: d.tuned,
	}
}

// Bytes implements core.Submodel.
func (d *decoderSub) Bytes() int { return 8 * (len(d.w.Data) + len(d.c)) }

func dimOf(p sgd.Points) int {
	if p.NumPoints() == 0 {
		return 0
	}
	return len(p.Point(0, nil))
}

// GatherCodes concatenates all shard codes back into one set, ordered shard
// by shard (for evaluation).
func (p *ParMACProblem) GatherCodes() *retrieval.Codes {
	total := 0
	for _, sh := range p.shards {
		total += sh.Z.N
	}
	out := retrieval.NewCodes(total, p.cfg.L)
	at := 0
	for _, sh := range p.shards {
		for i := 0; i < sh.Z.N; i++ {
			out.CopyCode(at, sh.Z, i)
			at++
		}
	}
	return out
}

// NewShardPoints builds the sgd.Points view a caller needs to hand extra
// shards to AddShard from a dataset and explicit indices.
func NewShardPoints(ds *dataset.Dataset, idx []int) sgd.Points {
	return subsetPoints{ds, idx}
}

var _ core.Problem = (*ParMACProblem)(nil)
var _ core.IterationHook = (*ParMACProblem)(nil)
var _ core.ModelSyncHook = (*ParMACProblem)(nil)
