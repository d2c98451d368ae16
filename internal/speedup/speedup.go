// Package speedup is the paper's performance model of ParMAC (§5), in two
// forms that read one Params:
//
//   - the closed form of §5 and appendix A: the per-iteration runtime T(P) of
//     eqs. (9)–(10), the speedup S(P) of eq. (12), the per-interval maxima
//     P*_k and S*_k of eq. (17), the globally maximum speedup of appendix A.2,
//     and the large-dataset approximation of eq. (20). It produces Figs. 4
//     and 5 and the theory rows of Fig. 10.
//   - Simulate, a discrete-event run of the asynchronous W-step schedule and
//     the parallel Z step in virtual time, with runtime noise (§4.3) and a
//     node topology (§8.5). It stands in for the paper's physical clusters
//     (Table 1) beyond the host's CPUs and produces the "experiment" rows of
//     Fig. 10, Fig. 13 and the simulated SIFT-1B training hours.
package speedup

import "math"

// Params are the model inputs of §5.1.
type Params struct {
	N int // training points
	M int // independent equal-size submodels in the W step
	E int // epochs e in the W step

	TWr float64 // computation time per submodel and data point, W step
	TWc float64 // communication time per submodel, W step
	TZr float64 // computation time per data point, Z step
}

// Rho1 is ρ1 = t_r^Z / ((e+1)·t_c^W) (eq. 13).
func (p Params) Rho1() float64 { return p.TZr / (float64(p.E+1) * p.TWc) }

// Rho2 is ρ2 = e·t_r^W / ((e+1)·t_c^W) (eq. 13).
func (p Params) Rho2() float64 {
	return float64(p.E) * p.TWr / (float64(p.E+1) * p.TWc)
}

// Rho is ρ = ρ1 + ρ2.
func (p Params) Rho() float64 { return p.Rho1() + p.Rho2() }

// T returns the modelled runtime of one ParMAC iteration on P machines:
// eq. (9) for P > 1 and eq. (10) for P = 1 (no communication). P is real, as
// in appendix A; only integer P occur in practice.
func (p Params) T(P float64) float64 {
	n, m, e := float64(p.N), float64(p.M), float64(p.E)
	if P <= 1 {
		return m*n*p.TZr + m*n*e*p.TWr
	}
	ceil := math.Ceil(m / P)
	return m*n/P*p.TZr + P*ceil*(e*(p.TWr*n/P+p.TWc)+p.TWc)
}

// Speedup returns S(P) = T(1)/T(P) (eq. 12), with S(1) = 1.
func (p Params) Speedup(P float64) float64 {
	if P <= 1 {
		return 1
	}
	return p.T(1) / p.T(P)
}

// PStarK is P*_k = sqrt(ρ1·M·N/k), the candidate maximiser inside the
// interval [M/k, M/(k−1)) (eq. 17).
func (p Params) PStarK(k int) float64 {
	return math.Sqrt(p.Rho1() * float64(p.M) * float64(p.N) / float64(k))
}

// SStarK is S*_k = S(P*_k) from eq. (17).
func (p Params) SStarK(k int) float64 {
	m, n := float64(p.M), float64(p.N)
	return p.Rho() * m / float64(k) /
		(p.Rho2() + 2*math.Sqrt(p.Rho1()*m/(n*float64(k))))
}

// GlobalMax returns the maximising machine count P* and the globally maximum
// speedup S* (appendix A.2):
//
//	M ≥ ρ1·N: S* = M/(1 + M/(ρN)) at P = M
//	M < ρ1·N: S* = S*_1 > M       at P = P*_1 = sqrt(ρ1·M·N) > M
func (p Params) GlobalMax() (pStar, sStar float64) {
	m, n := float64(p.M), float64(p.N)
	if m >= p.Rho1()*n {
		return m, m / (1 + m/(p.Rho()*n))
	}
	return p.PStarK(1), p.SStarK(1)
}

// PerfectSpeedupBound is the condition of eq. (15): S ≈ P requires P ≪ ρN.
// It returns ρN, the machine-count scale beyond which the speedup departs
// from perfect.
func (p Params) PerfectSpeedupBound() float64 { return p.Rho() * float64(p.N) }

// EffectiveSubmodels implements the §5.4 grouping rule for the BA: L encoder
// submodels of input dimension d, and d decoders of input dimension L,
// grouped into L groups so all M = 2L units have comparable size.
func EffectiveSubmodels(L int) int { return 2 * L }
