// Package macnet implements the general K-hidden-layer MAC formulation of
// §3.2 for sigmoid deep nets: the nested least-squares objective of eq. (4),
// the auxiliary-coordinate quadratic-penalty objective of eq. (6), the W step
// that splits into independent single-unit regressions, and the Z step — a
// generalised proximal operator per data point solved by gradient descent.
//
// The adapter in parmac.go is the trainer: every unit circulates as a
// ParMAC submodel and every machine runs the Z step on its own points. On
// one machine (P=1) that is MAC itself. Together they demonstrate the
// paper's claim that ParMAC applies to "any situation where MAC applies,
// i.e. nested functions with K layers" (§1), not just binary autoencoders.
package macnet

import (
	"math"
	"math/rand"

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
		total += n.pointNested(xs.Row(i), ys.Row(i), out)
	}
	return total
}

// pointNested is one point's term of eq. (4), ½‖y − f(x)‖²; out is scratch
// of the output width.
func (n *Net) pointNested(x, y, out []float64) float64 {
	n.Forward(x, out)
	return 0.5 * vec.SqDist(y, out)
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

// pointPenalty evaluates one point's terms of the quadratic-penalty
// objective of eq. (6):
// ½‖y − f_{K+1}(z_K)‖² + μ/2 Σ_k ‖z_k − f_k(z_{k−1})‖².
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

// ZStepPoint minimises the eq. (6) terms of one point over its coordinates
// z_1..z_K by gradient descent with backtracking, the "generalised proximal
// operator" of §3.2. It updates c in place and returns the final objective
// and whether the coordinates moved: only a step that lowers the objective is
// kept, so they moved exactly when some step did.
func ZStepPoint(n *Net, x, y []float64, c *Coords, i int, mu float64, iters int) (obj float64, moved bool) {
	k := n.K()
	obj = pointPenalty(n, x, y, c, i, mu)
	if k == 0 {
		return obj, false
	}
	step := 0.5
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
				improved, moved = true, true
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
	return obj, moved
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
