// Package macnet implements the general K-hidden-layer MAC formulation of
// §3.2 for sigmoid deep nets: the nested least-squares objective of eq. (4),
// the auxiliary-coordinate quadratic-penalty objective of eq. (6), the W step
// that splits into independent single-unit regressions, and the Z step — a
// generalised proximal operator per data point solved by gradient descent.
//
// Together with the adapter in parmac.go it demonstrates the paper's claim
// that ParMAC applies to "any situation where MAC applies, i.e. nested
// functions with K layers" (§1), not just binary autoencoders.
package macnet

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sgd"
	"repro/internal/vec"
)

// Net is a fully connected net y = f_{K+1}(...f_1(x)...) where every layer
// computes σ(W·[t;1]) with the logistic σ (eq. 4's running example).
type Net struct {
	// Ws[k] maps layer k's input (plus bias) to its output:
	// dims[k+1] × (dims[k]+1).
	Ws   []*vec.Matrix
	Dims []int // layer widths: input, hidden..., output
}

// NewNet builds a zero net with the given layer widths (at least input and
// output).
func NewNet(dims []int) *Net {
	if len(dims) < 2 {
		panic("macnet: need at least input and output layers")
	}
	ws := make([]*vec.Matrix, len(dims)-1)
	for k := 0; k < len(dims)-1; k++ {
		ws[k] = vec.NewMatrix(dims[k+1], dims[k]+1)
	}
	return &Net{Ws: ws, Dims: append([]int(nil), dims...)}
}

// InitRandom fills all weights with N(0, sigma²) values.
func (n *Net) InitRandom(rng *rand.Rand, sigma float64) {
	for _, w := range n.Ws {
		w.FillGaussian(rng, sigma)
	}
}

// Clone returns a deep copy.
func (n *Net) Clone() *Net {
	c := &Net{Dims: append([]int(nil), n.Dims...)}
	for _, w := range n.Ws {
		c.Ws = append(c.Ws, w.Clone())
	}
	return c
}

// K returns the number of hidden layers.
func (n *Net) K() int { return len(n.Ws) - 1 }

// Sigmoid is the logistic squashing function σ(t) = 1/(1+e^{-t}).
func Sigmoid(t float64) float64 { return 1 / (1 + math.Exp(-t)) }

// applyLayer computes σ(W·[in;1]) into out.
func applyLayer(w *vec.Matrix, in, out []float64) {
	for j := 0; j < w.Rows; j++ {
		row := w.Row(j)
		s := row[len(row)-1] // bias
		for i, v := range in {
			s += row[i] * v
		}
		out[j] = Sigmoid(s)
	}
}

// Forward evaluates the nested net, returning the output (allocated when dst
// is nil).
func (n *Net) Forward(x, dst []float64) []float64 {
	cur := x
	for k, w := range n.Ws {
		out := make([]float64, w.Rows)
		applyLayer(w, cur, out)
		if k == len(n.Ws)-1 {
			if dst != nil {
				copy(dst, out)
				return dst
			}
			return out
		}
		cur = out
	}
	return cur
}

// Activations returns the per-layer activations z_1..z_K and the output.
func (n *Net) Activations(x []float64) (hidden [][]float64, out []float64) {
	cur := x
	for k, w := range n.Ws {
		next := make([]float64, w.Rows)
		applyLayer(w, cur, next)
		if k == len(n.Ws)-1 {
			return hidden, next
		}
		hidden = append(hidden, next)
		cur = next
	}
	return hidden, cur
}

// NestedError is the nested objective of eq. (4):
// ½ Σ_n ‖y_n − f(x_n)‖².
func (n *Net) NestedError(xs, ys *vec.Matrix) float64 {
	var total float64
	out := make([]float64, n.Dims[len(n.Dims)-1])
	for i := 0; i < xs.Rows; i++ {
		n.Forward(xs.Row(i), out)
		total += 0.5 * vec.SqDist(ys.Row(i), out)
	}
	return total
}

// Coords holds the auxiliary coordinates z_{k,n} for a set of points: one
// matrix per hidden layer, rows indexed like the points.
type Coords struct {
	Z []*vec.Matrix // Z[k]: N × dims[k+1], k = 0..K-1
}

// NewCoordsFromForward initialises the coordinates with the net's own
// activations (the standard MAC warm start: the constraints of eq. (5) hold
// exactly, so E_Q equals the nested error).
func NewCoordsFromForward(n *Net, xs *vec.Matrix) *Coords {
	k := n.K()
	c := &Coords{}
	for layer := 0; layer < k; layer++ {
		c.Z = append(c.Z, vec.NewMatrix(xs.Rows, n.Dims[layer+1]))
	}
	for i := 0; i < xs.Rows; i++ {
		hidden, _ := n.Activations(xs.Row(i))
		for layer := 0; layer < k; layer++ {
			copy(c.Z[layer].Row(i), hidden[layer])
		}
	}
	return c
}

// Clone deep-copies the coordinates.
func (c *Coords) Clone() *Coords {
	out := &Coords{}
	for _, z := range c.Z {
		out.Z = append(out.Z, z.Clone())
	}
	return out
}

// PenaltyError is the quadratic-penalty objective of eq. (6):
// ½ Σ_n ‖y_n − f_{K+1}(z_{K,n})‖² + μ/2 Σ_n Σ_k ‖z_{k,n} − f_k(z_{k−1,n})‖².
func PenaltyError(n *Net, xs, ys *vec.Matrix, c *Coords, mu float64) float64 {
	var total float64
	for i := 0; i < xs.Rows; i++ {
		total += pointPenalty(n, xs.Row(i), ys.Row(i), c, i, mu)
	}
	return total
}

// pointPenalty evaluates one point's terms of eq. (6).
func pointPenalty(n *Net, x, y []float64, c *Coords, i int, mu float64) float64 {
	k := n.K()
	var total float64
	prev := x
	buf := make([]float64, maxDim(n))
	for layer := 0; layer < k; layer++ {
		out := buf[:n.Dims[layer+1]]
		applyLayer(n.Ws[layer], prev, out)
		total += 0.5 * mu * vec.SqDist(c.Z[layer].Row(i), out)
		prev = c.Z[layer].Row(i)
	}
	out := buf[:n.Dims[len(n.Dims)-1]]
	applyLayer(n.Ws[k], prev, out)
	total += 0.5 * vec.SqDist(y, out)
	return total
}

func maxDim(n *Net) int {
	m := 0
	for _, d := range n.Dims {
		if d > m {
			m = d
		}
	}
	return m
}

// UnitRef identifies one hidden/output unit: layer k (0-based over Ws) and
// row j of Ws[k]. Each unit is an independent W-step subproblem (§3.2).
type UnitRef struct{ Layer, Unit int }

// Units enumerates every unit of the net, the M independent submodels of the
// W step.
func (n *Net) Units() []UnitRef {
	var out []UnitRef
	for k, w := range n.Ws {
		for j := 0; j < w.Rows; j++ {
			out = append(out, UnitRef{k, j})
		}
	}
	return out
}

// UnitSGDStep performs one SGD update of unit u on sample (in, target): the
// squared loss ½(σ(w·[in;1]) − target)² — a single-layer, single-unit
// regression, trainable "with existing algorithms (logistic regression)".
func (n *Net) UnitSGDStep(u UnitRef, in []float64, target, eta float64) {
	row := n.Ws[u.Layer].Row(u.Unit)
	s := row[len(row)-1]
	for i, v := range in {
		s += row[i] * v
	}
	p := Sigmoid(s)
	g := (p - target) * p * (1 - p)
	for i, v := range in {
		row[i] -= eta * g * v
	}
	row[len(row)-1] -= eta * g
}

// ZStepPoint minimises the eq. (6) terms of one point over its coordinates
// z_1..z_K by gradient descent with backtracking, the "generalised proximal
// operator" of §3.2. It updates c in place and returns the final objective.
func ZStepPoint(n *Net, x, y []float64, c *Coords, i int, mu float64, iters int) float64 {
	k := n.K()
	if k == 0 {
		return pointPenalty(n, x, y, c, i, mu)
	}
	step := 0.5
	obj := pointPenalty(n, x, y, c, i, mu)
	grads := make([][]float64, k)
	for layer := range grads {
		grads[layer] = make([]float64, n.Dims[layer+1])
	}
	saved := make([][]float64, k)
	for layer := range saved {
		saved[layer] = make([]float64, n.Dims[layer+1])
	}
	for it := 0; it < iters; it++ {
		zGrad(n, x, y, c, i, mu, grads)
		for layer := 0; layer < k; layer++ {
			copy(saved[layer], c.Z[layer].Row(i))
		}
		improved := false
		for try := 0; try < 12; try++ {
			for layer := 0; layer < k; layer++ {
				z := c.Z[layer].Row(i)
				for d := range z {
					z[d] = saved[layer][d] - step*grads[layer][d]
				}
			}
			if next := pointPenalty(n, x, y, c, i, mu); next < obj {
				obj = next
				improved = true
				step *= 1.2
				break
			}
			step *= 0.5
		}
		if !improved {
			for layer := 0; layer < k; layer++ {
				copy(c.Z[layer].Row(i), saved[layer])
			}
			break
		}
	}
	return obj
}

// zGrad computes ∂/∂z of the point's penalty terms.
func zGrad(n *Net, x, y []float64, c *Coords, i int, mu float64, grads [][]float64) {
	k := n.K()
	// Forward values a_layer = f_layer(ẑ_{layer-1}) and output.
	prev := x
	acts := make([][]float64, k)
	for layer := 0; layer < k; layer++ {
		acts[layer] = make([]float64, n.Dims[layer+1])
		applyLayer(n.Ws[layer], prev, acts[layer])
		prev = c.Z[layer].Row(i)
	}
	out := make([]float64, n.Dims[len(n.Dims)-1])
	applyLayer(n.Ws[k], prev, out)

	for layer := 0; layer < k; layer++ {
		z := c.Z[layer].Row(i)
		g := grads[layer]
		// Direct term: μ(z_k − a_k).
		for d := range g {
			g[d] = mu * (z[d] - acts[layer][d])
		}
		// Indirect term through the next layer's input.
		var resid []float64
		var weight float64
		var next *vec.Matrix
		var nextOut []float64
		if layer == k-1 {
			next = n.Ws[k]
			nextOut = out
			resid = y
			weight = 1
		} else {
			next = n.Ws[layer+1]
			nextOut = acts[layer+1]
			resid = c.Z[layer+1].Row(i)
			weight = mu
		}
		for j := 0; j < next.Rows; j++ {
			p := nextOut[j]
			diff := p - resid[j] // derivative of ½(resid−p)² wrt p is (p−resid)
			dsig := p * (1 - p)
			row := next.Row(j)
			coef := weight * diff * dsig
			for d := range g {
				g[d] += coef * row[d]
			}
		}
	}
}

// MACConfig drives the serial MAC loop for the net.
type MACConfig struct {
	Mu0      float64
	MuFactor float64
	Iters    int
	Eta      float64 // SGD step for the unit regressions
	WEpochs  int     // SGD passes per unit per W step
	ZIters   int     // gradient iterations per point per Z step
	Seed     int64
	Shuffle  bool

	// Parallel is the goroutine count RunMAC uses for the W step (units are
	// independent single-unit regressions, fanned out in groups) and the Z
	// step (points are independent proximal problems): 0 or 1 serial, < 0
	// every core. Units and points share no mutable state, so the trained
	// net is bit-identical for any value.
	Parallel int
}

// IterStats is one MAC iteration's learning-curve row.
type IterStats struct {
	Iter   int
	Mu     float64
	EQ     float64
	Nested float64
}

// RunMAC trains the net on (xs, ys) with serial MAC on one machine and
// returns the learning curve; examples/deepnet compares it with the
// distributed ParMACProblem.
func RunMAC(n *Net, xs, ys *vec.Matrix, cfg MACConfig) []IterStats {
	if cfg.Mu0 <= 0 {
		cfg.Mu0 = 1
	}
	if cfg.MuFactor <= 1 {
		cfg.MuFactor = 2
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 10
	}
	if cfg.Eta <= 0 {
		cfg.Eta = 0.5
	}
	if cfg.WEpochs <= 0 {
		cfg.WEpochs = 2
	}
	if cfg.ZIters <= 0 {
		cfg.ZIters = 10
	}
	if n.K() == 0 {
		panic("macnet: RunMAC needs at least one hidden layer")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	workers := core.Cores(cfg.Parallel)
	coords := NewCoordsFromForward(n, xs)
	var stats []IterStats
	mu := cfg.Mu0
	for it := 0; it < cfg.Iters; it++ {
		// W step: every unit independently (hidden units fit the coordinates,
		// output units fit the targets), fanned out over unit groups.
		for ep := 0; ep < cfg.WEpochs; ep++ {
			order := sgd.Order(xs.Rows, cfg.Shuffle, rng)
			TrainUnitsPass(n, xs, coords, order, cfg.Eta, workers)
			TrainOutputPass(n, ys, coords, order, cfg.Eta, workers)
		}
		// Z step: every point independently, chunked over the pool.
		core.ParallelChunks(xs.Rows, core.ClampWorkers(xs.Rows, workers), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				ZStepPoint(n, xs.Row(i), ys.Row(i), coords, i, mu, cfg.ZIters)
			}
		})
		stats = append(stats, IterStats{
			Iter: it, Mu: mu,
			EQ:     PenaltyError(n, xs, ys, coords, mu),
			Nested: n.NestedError(xs, ys),
		})
		mu *= cfg.MuFactor
	}
	return stats
}

// TrainUnitsPass runs one SGD pass of every hidden unit over the given point
// order, using the auxiliary coordinates as single-layer inputs/targets, with
// the units split into contiguous groups over workers goroutines (core.Cores
// semantics). A unit's pass touches only its own weight row and reads
// xs/coords, which the W step never mutates, so the result is bit-identical
// for any worker count.
func TrainUnitsPass(n *Net, xs *vec.Matrix, c *Coords, order []int, eta float64, workers int) {
	k := n.K()
	var hidden []UnitRef
	for _, u := range n.Units() {
		if u.Layer < k {
			hidden = append(hidden, u)
		}
	}
	core.ParallelChunks(len(hidden), core.Cores(workers), func(_, lo, hi int) {
		for _, u := range hidden[lo:hi] {
			for _, i := range order {
				in := xs.Row(i)
				if u.Layer > 0 {
					in = c.Z[u.Layer-1].Row(i)
				}
				n.UnitSGDStep(u, in, c.Z[u.Layer].At(i, u.Unit), eta)
			}
		}
	})
}

// TrainOutputPass runs one SGD pass of the output-layer units against ys,
// with the units split over workers goroutines (core.Cores semantics);
// bit-identical for any worker count.
func TrainOutputPass(n *Net, ys *vec.Matrix, c *Coords, order []int, eta float64, workers int) {
	k := n.K()
	w := n.Ws[k]
	core.ParallelChunks(w.Rows, core.Cores(workers), func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			u := UnitRef{k, j}
			for _, i := range order {
				n.UnitSGDStep(u, c.Z[k-1].Row(i), ys.At(i, j), eta)
			}
		}
	})
}
