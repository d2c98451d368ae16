package macnet

import (
	"math/rand"

	"repro/internal/sgd"
	"repro/internal/vec"
)

// Augmented-Lagrangian MAC (§3.1: "it is also possible to apply the augmented
// Lagrangian method"). For the continuous coordinates of the K-layer net the
// penalised objective gains a multiplier term per constraint:
//
//	L(W,Z,Λ;μ) = ½Σ‖y − f_{K+1}(z_K)‖²
//	           + Σ_k [ λ_kᵀ(z_k − f_k(ẑ_{k−1})) + μ/2·‖z_k − f_k(ẑ_{k−1})‖² ]
//
// with the first-order multiplier update λ_k ← λ_k + μ(z_k − f_k(ẑ_{k−1}))
// after each MAC iteration. Unlike the quadratic penalty, AL drives the
// constraints to feasibility at a *finite* μ. The W step barely changes:
// minimising the k-th layer's terms over W_k is a least-squares fit of
// f_k(ẑ_{k−1}) to the shifted targets z_k + λ_k/μ.

// Multipliers holds one λ vector per hidden constraint per point, with the
// same shape as the auxiliary coordinates.
type Multipliers struct {
	L []*vec.Matrix // L[k]: N × dims[k+1]
}

// NewMultipliers allocates zero multipliers matching the net and point count.
func NewMultipliers(n *Net, points int) *Multipliers {
	m := &Multipliers{}
	for k := 0; k < n.K(); k++ {
		m.L = append(m.L, vec.NewMatrix(points, n.Dims[k+1]))
	}
	return m
}

// ALPenalty evaluates the augmented Lagrangian over all points.
func ALPenalty(n *Net, xs, ys *vec.Matrix, c *Coords, lam *Multipliers, mu float64) float64 {
	var total float64
	for i := 0; i < xs.Rows; i++ {
		total += pointPenaltyAL(n, xs.Row(i), ys.Row(i), c, lam, i, mu)
	}
	return total
}

// pointPenaltyAL is pointPenalty plus the multiplier terms.
func pointPenaltyAL(n *Net, x, y []float64, c *Coords, lam *Multipliers, i int, mu float64) float64 {
	total := pointPenalty(n, x, y, c, i, mu)
	if lam == nil {
		return total
	}
	k := n.K()
	prev := x
	buf := make([]float64, maxDim(n))
	for layer := 0; layer < k; layer++ {
		out := buf[:n.Dims[layer+1]]
		applyLayer(n.Ws[layer], prev, out)
		z := c.Z[layer].Row(i)
		l := lam.L[layer].Row(i)
		for d := range z {
			total += l[d] * (z[d] - out[d])
		}
		prev = z
	}
	return total
}

// ConstraintViolation returns Σ_n Σ_k ‖z_k − f_k(ẑ_{k−1})‖², the feasibility
// measure AL is supposed to drive to zero at finite μ.
func ConstraintViolation(n *Net, xs *vec.Matrix, c *Coords) float64 {
	k := n.K()
	buf := make([]float64, maxDim(n))
	var total float64
	for i := 0; i < xs.Rows; i++ {
		prev := xs.Row(i)
		for layer := 0; layer < k; layer++ {
			out := buf[:n.Dims[layer+1]]
			applyLayer(n.Ws[layer], prev, out)
			total += vec.SqDist(c.Z[layer].Row(i), out)
			prev = c.Z[layer].Row(i)
		}
	}
	return total
}

// UpdateMultipliers applies the first-order AL update
// λ_k ← λ_k + μ·(z_k − f_k(ẑ_{k−1})) for every point and layer.
func UpdateMultipliers(n *Net, xs *vec.Matrix, c *Coords, lam *Multipliers, mu float64) {
	k := n.K()
	buf := make([]float64, maxDim(n))
	for i := 0; i < xs.Rows; i++ {
		prev := xs.Row(i)
		for layer := 0; layer < k; layer++ {
			out := buf[:n.Dims[layer+1]]
			applyLayer(n.Ws[layer], prev, out)
			z := c.Z[layer].Row(i)
			l := lam.L[layer].Row(i)
			for d := range z {
				l[d] += mu * (z[d] - out[d])
			}
			prev = z
		}
	}
}

// ZStepPointAL minimises one point's augmented-Lagrangian terms over its
// coordinates by gradient descent with backtracking, generalising
// ZStepPoint (which it reduces to when lam is nil).
func ZStepPointAL(n *Net, x, y []float64, c *Coords, lam *Multipliers, i int, mu float64, iters int) float64 {
	k := n.K()
	if k == 0 {
		return pointPenaltyAL(n, x, y, c, lam, i, mu)
	}
	step := 0.5
	obj := pointPenaltyAL(n, x, y, c, lam, i, mu)
	grads := make([][]float64, k)
	saved := make([][]float64, k)
	for layer := range grads {
		grads[layer] = make([]float64, n.Dims[layer+1])
		saved[layer] = make([]float64, n.Dims[layer+1])
	}
	for it := 0; it < iters; it++ {
		zGradAL(n, x, y, c, lam, i, mu, grads)
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
			if next := pointPenaltyAL(n, x, y, c, lam, i, mu); next < obj {
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

// zGradAL extends zGrad with the multiplier contributions:
// direct ∂/∂z_k gains +λ_k; the indirect term through layer k+1 gains −λ_{k+1}
// inside the residual coefficient.
func zGradAL(n *Net, x, y []float64, c *Coords, lam *Multipliers, i int, mu float64, grads [][]float64) {
	zGrad(n, x, y, c, i, mu, grads)
	if lam == nil {
		return
	}
	k := n.K()
	// Recompute activations once for the multiplier corrections.
	prev := x
	acts := make([][]float64, k)
	for layer := 0; layer < k; layer++ {
		acts[layer] = make([]float64, n.Dims[layer+1])
		applyLayer(n.Ws[layer], prev, acts[layer])
		prev = c.Z[layer].Row(i)
	}
	for layer := 0; layer < k; layer++ {
		g := grads[layer]
		// Direct: +λ_k.
		l := lam.L[layer].Row(i)
		for d := range g {
			g[d] += l[d]
		}
		// Indirect through layer+1 (only for hidden-to-hidden constraints).
		if layer == k-1 {
			continue
		}
		next := n.Ws[layer+1]
		lNext := lam.L[layer+1].Row(i)
		for j := 0; j < next.Rows; j++ {
			p := acts[layer+1][j]
			dsig := p * (1 - p)
			coef := -lNext[j] * dsig
			row := next.Row(j)
			for d := range g {
				g[d] += coef * row[d]
			}
		}
	}
}

// RunMACAL trains the net with augmented-Lagrangian MAC at a *fixed* penalty
// parameter cfg.Mu0 (no μ schedule needed — the multipliers do the work).
// The unit regressions fit the shifted targets z + λ/μ.
func RunMACAL(n *Net, xs, ys *vec.Matrix, cfg MACConfig) []IterStats {
	if cfg.Mu0 <= 0 {
		cfg.Mu0 = 1
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
		panic("macnet: RunMACAL needs at least one hidden layer")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	coords := NewCoordsFromForward(n, xs)
	lam := NewMultipliers(n, xs.Rows)
	mu := cfg.Mu0
	var stats []IterStats
	for it := 0; it < cfg.Iters; it++ {
		for ep := 0; ep < cfg.WEpochs; ep++ {
			order := sgd.Order(xs.Rows, cfg.Shuffle, rng)
			trainUnitsPassAL(n, xs, coords, lam, order, cfg.Eta, mu)
			TrainOutputPass(n, ys, coords, order, cfg.Eta, 1)
		}
		for i := 0; i < xs.Rows; i++ {
			ZStepPointAL(n, xs.Row(i), ys.Row(i), coords, lam, i, mu, cfg.ZIters)
		}
		UpdateMultipliers(n, xs, coords, lam, mu)
		stats = append(stats, IterStats{
			Iter: it, Mu: mu,
			EQ:     ALPenalty(n, xs, ys, coords, lam, mu),
			Nested: n.NestedError(xs, ys),
		})
	}
	return stats
}

// trainUnitsPassAL is TrainUnitsPass with the AL-shifted targets z + λ/μ for
// the hidden units.
func trainUnitsPassAL(n *Net, xs *vec.Matrix, c *Coords, lam *Multipliers, order []int, eta, mu float64) {
	k := n.K()
	for _, u := range n.Units() {
		if u.Layer >= k {
			continue // output units fit y, handled by TrainOutputPass
		}
		for _, i := range order {
			in := xs.Row(i)
			if u.Layer > 0 {
				in = c.Z[u.Layer-1].Row(i)
			}
			target := c.Z[u.Layer].At(i, u.Unit) + lam.L[u.Layer].At(i, u.Unit)/mu
			n.UnitSGDStep(u, in, target, eta)
		}
	}
}
