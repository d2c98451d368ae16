package binauto

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/retrieval"
	"repro/internal/sgd"
	"repro/internal/vec"
)

// ZMethod selects how the per-point binary proximal operator
//
//	min_{z ∈ {0,1}^L}  ‖x − f(z)‖² + μ‖z − h(x)‖²
//
// is solved (§3.1): exactly by enumeration for small L, or approximately by
// alternating optimisation over bits initialised from the truncated relaxed
// solution for larger L.
type ZMethod int

const (
	// ZAuto picks ZEnumerate when L <= EnumLimit, ZAlternate otherwise —
	// the paper's policy ("enumeration for SIFT-10K and SIFT-1M, alternating
	// optimisation otherwise").
	ZAuto ZMethod = iota
	// ZEnumerate searches all 2^L codes exactly (L <= EnumLimit). A candidate
	// costs O(1), two loads and two adds, over a kernel-wide table of zᵀGz
	// and two per-point half-tables.
	ZEnumerate
	// ZAlternate solves the relaxed problem in [0,1]^L, truncates, then
	// alternates single-bit flips to a local minimum.
	ZAlternate
)

// EnumLimit is the largest L for which ZAuto enumerates and the largest
// ZEnumerate accepts. 2^16 candidates per point matches the paper's use of
// enumeration at L=16; the kernel's zᵀGz table holds 2^L float64s (512 KB at
// L=16, 128 MB at L=24).
const EnumLimit = 16

// ZKernel is the per-(model, μ) precomputation shared by every Z solve. Both
// solvers work against the decoder Gram matrix G = W·Wᵀ instead of the
// D-dimensional residual: with t = W(x−c), the error of code z is
//
//	‖x − f(z)‖² = ‖x−c‖² − 2 z·t + zᵀGz,
//
// so the only O(L·D) work of a solve is t (and h(x)).
//
// ZEnumerate tabulates zᵀGz for all 2^L codes here, once per kernel. The rest
// of a candidate's objective, −2 z·t + μ‖z − h(x)‖², is a sum over bits, so it
// splits into one term per half of the code; each solver tabulates both
// halves per point in O(2^{L/2}), and a candidate is
// zᵀGz + T_lo[z_lo] + T_hi[z_hi].
//
// ZAlternate keeps the Cholesky factor of (G + μI) for its relaxed
// initialisation and walks single-bit flips: with the residual
// r = x − c − Σ_l z_l B_l, flipping bit b changes the error by ∓2 B_b·r + G_bb,
// and q = W·r follows each accepted flip at O(L) (q ∓= G column b).
//
// A kernel is immutable after construction and safe for concurrent use;
// per-goroutine scratch lives in the ZSolvers it hands out.
type ZKernel struct {
	Model  *Model
	Mu     float64
	Method ZMethod

	gram *vec.Matrix   // G = W·Wᵀ (L×L, symmetric)
	chol *vec.Cholesky // factor of (G + μI), for the relaxed init (ZAlternate)
	quad []float64     // quad[k] = zᵀGz for z = k ^ (k>>1), all 2^L codes (ZEnumerate)

	// The L per-bit SVM weight rows gathered into one contiguous L×D matrix
	// (plus biases), so h(x) is a blocked matvec instead of L pointer-chased
	// dot products. MulVec reproduces Dot's summation order per row, so the
	// bits equal svm.Linear.Predict exactly.
	encW *vec.Matrix
	encB []float64
}

// checkCodeLength panics on a code length the Z step cannot take: codes are
// one packed word, and enumeration tabulates all 2^L codes.
func checkCodeLength(l int, method ZMethod) {
	if l > 64 {
		panic("binauto: code length limited to 64 bits (one packed word)")
	}
	if method == ZEnumerate && l > EnumLimit {
		panic("binauto: ZEnumerate tabulates all 2^L codes; use ZAlternate or ZAuto for L > EnumLimit (16)")
	}
}

// NewZKernel precomputes the shared Z-step state for the given model and
// penalty value: O(L²·D) once, plus O(2^L) for ZEnumerate's table, amortised
// over every point solved with it.
func NewZKernel(m *Model, mu float64, method ZMethod) *ZKernel {
	l := m.L()
	if method == ZAuto {
		if l <= EnumLimit {
			method = ZEnumerate
		} else {
			method = ZAlternate
		}
	}
	checkCodeLength(l, method)
	// Snapshot the model: callers (assembleModel in particular) hand in
	// weight slices aliased with live submodels, and the Gram/Cholesky/
	// encoder state derived below must never drift from Model if those are
	// later mutated in place.
	k := &ZKernel{Model: m.Clone(), Mu: mu, Method: method}
	m = k.Model
	k.encW = vec.NewMatrix(l, m.D())
	k.encB = make([]float64, l)
	for i, e := range m.Enc {
		copy(k.encW.Row(i), e.W)
		k.encB[i] = e.B
	}
	// G = W·Wᵀ (L×L, symmetric).
	g := vec.NewMatrix(l, l)
	for i := 0; i < l; i++ {
		for j := i; j < l; j++ {
			v := vec.Dot(m.Dec.W.Row(i), m.Dec.W.Row(j))
			g.Set(i, j, v)
			g.Set(j, i, v)
		}
	}
	k.gram = g
	if method == ZEnumerate {
		k.quad = quadTable(g)
	}
	if method == ZAlternate {
		// (G + μI), SPD for μ > 0. Factored on a copy so gram stays pure G.
		a := g.Clone()
		jitter := mu
		if jitter <= 0 {
			jitter = 1e-8
		}
		a.AddScaledIdentity(jitter)
		ch, err := vec.NewCholesky(a)
		if err != nil {
			a.AddScaledIdentity(1e-6 * (1 + vec.Norm(a.Data)))
			ch, err = vec.NewCholesky(a)
			if err != nil {
				panic("binauto: relaxed Z system not factorisable")
			}
		}
		k.chol = ch
	}
	return k
}

// quadTable returns zᵀGz for every L-bit code z, in visiting order: entry k
// is code k ^ (k>>1). A code z with highest set bit b extends a = z − 2^b by
// one bit: zᵀGz = aᵀGa + G_bb + 2·Σ_{j∈a} G_bj, and the row sums over every
// a < 2^b are subset sums of G's row b. So the table costs O(2^L) adds, and
// no entry carries more than 2L roundings.
func quadTable(g *vec.Matrix) []float64 {
	l := g.Rows
	quad := make([]float64, 1<<uint(l))
	rowSum := make([]float64, 1<<uint(l-1))
	for b := 0; b < l; b++ {
		row := g.Row(b)
		lo := 1 << uint(b)
		subsetSums(rowSum[:lo], row[:b])
		for a, s := range rowSum[:lo] {
			quad[lo|a] = quad[a] + row[b] + 2*s
		}
	}
	visit := make([]float64, len(quad))
	grayOrder(visit, quad)
	return visit
}

// grayOrder sets dst[k] = v[k ^ (k>>1)]: a table indexed by code, in
// Gray-code visiting order.
func grayOrder(dst, v []float64) {
	for k := range dst {
		dst[k] = v[k^k>>1]
	}
}

// subsetSums sets sum[a] = Σ_{b∈a} v[b] for every subset a of v's indices
// (len(sum) = 2^len(v)), each entry one add onto a smaller one.
func subsetSums(sum, v []float64) {
	sum[0] = 0
	for a := 1; a < len(sum); a++ {
		sum[a] = sum[a&(a-1)] + v[bits.TrailingZeros(uint(a))]
	}
}

// NewSolver returns a solver sharing this kernel's precomputation. Solvers
// are cheap (scratch slices only); create one per goroutine.
func (k *ZKernel) NewSolver() *ZSolver {
	l, d := k.Model.L(), k.Model.D()
	s := &ZSolver{
		Model: k.Model, Mu: k.Mu, Method: k.Method, k: k,
		t:    make([]float64, l),
		q:    make([]float64, l),
		rhs:  make([]float64, l),
		zRel: make([]float64, l),
		xmc:  make([]float64, d),
	}
	if k.Method == ZEnumerate {
		s.tLo = make([]float64, 1<<uint(l/2))
		s.tLoRev = make([]float64, len(s.tLo))
		s.tHi = make([]float64, 1<<uint(l-l/2))
	}
	return s
}

// Run solves every point of pts — the whole Z step of one machine's shard,
// with no communication (§4.1) — on up to workers goroutines (core.Cores
// semantics, one solver each). It returns how many codes changed and the
// shard's two objectives after the step: eq = Σ E_Q terms at the new codes
// and eba = Σ ‖x − f(h(x))‖². Points are independent, so the codes are
// bit-identical for any worker count; each point's terms go into a slot of
// its own and are summed serially in point order, so the sums are too.
func (k *ZKernel) Run(pts sgd.Points, z *retrieval.Codes, workers int) (changed int, eq, eba float64) {
	n := pts.NumPoints()
	eqs, ebas := make([]float64, n), make([]float64, n)
	changed = core.CountChunks(n, workers, func(lo, hi int) int {
		s := k.NewSolver()
		buf := make([]float64, k.Model.D())
		c := 0
		for i := lo; i < hi; i++ {
			if s.Solve(pts.Point(i, buf), z, i) {
				c++
			}
			eqs[i], ebas[i] = s.lastObj, s.lastEBA
		}
		return c
	})
	for i := range eqs {
		eq += eqs[i]
		eba += ebas[i]
	}
	return changed, eq, eba
}

// ZSolver solves the Z step for a fixed model and μ, carrying per-goroutine
// scratch over a shared ZKernel. Not safe for concurrent use; create one
// solver per goroutine with ZKernel.NewSolver.
type ZSolver struct {
	Model  *Model
	Mu     float64
	Method ZMethod

	k *ZKernel
	// scratch
	hw      uint64    // packed h(x) of the point being solved
	t       []float64 // W·(x−c)
	q       []float64 // W·r, maintained incrementally across flips (ZAlternate)
	tLo     []float64 // the low ⌊L/2⌋ bits' share of the objective, Gray order (ZEnumerate)
	tLoRev  []float64 // tLo reversed
	tHi     []float64 // the high ⌈L/2⌉ bits' share, indexed by code (ZEnumerate)
	rhs     []float64
	zRel    []float64
	xmc     []float64
	lastObj float64 // objective of the last Solve's code, via the Gram identities
	lastEBA float64 // ‖x − f(h(x))‖² of the last Solve's point, the same way
}

// Solve optimises code i of z for input x in place. It returns true when the
// code changed. Not safe for concurrent use; create one solver per goroutine.
func (s *ZSolver) Solve(x []float64, z *retrieval.Codes, i int) bool {
	s.hw = s.encodeWord(x)
	switch s.Method {
	case ZEnumerate:
		return s.solveEnum(x, z, i)
	default:
		return s.solveAlt(x, z, i)
	}
}

// encodeWord computes h(x) packed into a word through the kernel's gathered
// encoder matrix — bit l equals Model.Enc[l].Predict(x) exactly.
func (s *ZSolver) encodeWord(x []float64) uint64 {
	k := s.k
	k.encW.MulVec(x, s.rhs)
	var w uint64
	for l, b := range k.encB {
		if s.rhs[l]+b >= 0 {
			w |= 1 << uint(l)
		}
	}
	return w
}

// begin loads the point into scratch: xmc = x − c, t = W·(x−c) (the only
// O(L·D) work of a solve), and returns ‖x−c‖², the error at z = 0. It also
// records the error at z = h(x), the point's E_BA term.
func (s *ZSolver) begin(x []float64) float64 {
	m := s.Model
	for j, c := range m.Dec.C {
		s.xmc[j] = x[j] - c
	}
	m.Dec.W.MulVec(s.xmc, s.t)
	e0 := vec.SqNorm(s.xmc)
	s.lastEBA = s.hashErr(e0)
	return e0
}

// hashErr returns ‖x − f(h(x))‖² = e0 − 2·Σ_{b∈h} t_b + Σ_{a,b∈h} G_ab from
// the loaded point (e0 = ‖x−c‖², t) and h(x): O(popcount²) adds, with no
// D-dimensional work.
func (s *ZSolver) hashErr(e0 float64) float64 {
	g := s.k.gram
	var lin, quad float64
	for a := s.hw; a != 0; a &= a - 1 {
		i := bits.TrailingZeros64(a)
		lin += s.t[i]
		row := g.Row(i)
		for b := s.hw; b != 0; b &= b - 1 {
			quad += row[bits.TrailingZeros64(b)]
		}
	}
	return e0 - 2*lin + quad
}

// flipTo applies flipping bit b of cur to the incremental state: it returns
// the new code and error, updating q = W·r at O(L) via the Gram column — the
// alternating solver's step for each raised and each accepted bit. The update
// loops are written out (α = ±1).
func (s *ZSolver) flipTo(cur uint64, b int, err float64) (uint64, float64) {
	grow := s.k.gram.Row(b)
	q := s.q[:len(grow)]
	mask := uint64(1) << uint(b)
	if cur&mask == 0 {
		// 0→1: r' = r − B_b; ‖r'‖² = ‖r‖² − 2 B_b·r + G_bb.
		err += -2*q[b] + grow[b]
		for j, g := range grow {
			q[j] -= g
		}
		return cur | mask, err
	}
	err += 2*q[b] + grow[b]
	for j, g := range grow {
		q[j] += g
	}
	return cur &^ mask, err
}

// solveEnum evaluates all 2^L codes and keeps the first strictly smallest
// objective in Gray-code order z = k ^ (k>>1), the order that fixes which of
// tied codes wins. With h = ⌊L/2⌋ and k = khi·2^h + klo, the high half of z
// is gray(khi), and the low half is gray(klo) for even khi and
// gray(2^h−1−klo) for odd khi (bit h−1 flipped). So with the zᵀGz table and
// the low half's table both in visiting order, the inner loop over klo reads
// them front to back (tLo, or tLoRev for odd khi) and costs two loads and two
// adds per candidate.
func (s *ZSolver) solveEnum(x []float64, z *retrieval.Codes, i int) bool {
	h := uint(s.Model.L() / 2)
	e0 := s.begin(x)
	n := len(s.tLo)
	s.halfTable(s.tLoRev, s.t[:h], s.hw&uint64(n-1)) // indexed by code, for now
	grayOrder(s.tLo, s.tLoRev)
	for j, v := range s.tLo {
		s.tLoRev[n-1-j] = v
	}
	s.halfTable(s.tHi, s.t[h:], s.hw>>h)

	quad := s.k.quad
	best, bestObj := 0, quad[0]+s.tLo[0]+s.tHi[0]
	for khi := range len(s.tHi) {
		tHi := s.tHi[khi^khi>>1]
		tLo := s.tLo
		if khi&1 != 0 {
			tLo = s.tLoRev
		}
		row := quad[khi*n : (khi+1)*n]
		tLo = tLo[:len(row)]
		for klo, q := range row {
			if obj := q + tLo[klo] + tHi; obj < bestObj {
				best, bestObj = khi*n+klo, obj
			}
		}
	}
	s.lastObj = e0 + bestObj
	return s.store(uint64(best^best>>1), z, i)
}

// halfTable fills tab[a] = μ·|a ⊕ hw| − 2·Σ_{b∈a} t[b] for every subset a of
// one half of the code's bits: that half's share of −2 z·t + μ‖z − h(x)‖².
func (s *ZSolver) halfTable(tab, t []float64, hw uint64) {
	subsetSums(tab, t)
	for a, sum := range tab {
		tab[a] = s.Mu*float64(bits.OnesCount64(uint64(a)^hw)) - 2*sum
	}
}

// solveAlt initialises z from the truncated relaxed solution
// (G + μI)z = W(x−c) + μh and then alternates single-bit flips until no flip
// decreases the objective (§3.1). A flip candidate costs O(1) — the error
// delta is ∓2 q_b + G_bb — and only accepted flips pay the O(L) q update, so
// a full pass is O(L²) instead of O(L·D).
func (s *ZSolver) solveAlt(x []float64, z *retrieval.Codes, i int) bool {
	l := s.Model.L()
	err := s.begin(x)
	copy(s.q, s.t) // r = x − c at z = 0
	// rhs = W(x−c) + μh.
	copy(s.rhs, s.t)
	for b := 0; b < l; b++ {
		if s.hw&(1<<uint(b)) != 0 {
			s.rhs[b] += s.Mu
		}
	}
	s.k.chol.Solve(s.rhs, s.zRel)
	var cur uint64
	for b := 0; b < l; b++ {
		if s.zRel[b] >= 0.5 {
			// Raise the bit through the incremental state so q and err track
			// the truncated initial code.
			cur, err = s.flipTo(cur, b, err)
		}
	}
	ham := bits.OnesCount64(cur ^ s.hw)
	g := s.k.gram
	const maxPasses = 32
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for b := 0; b < l; b++ {
			mask := uint64(1) << uint(b)
			isOne := cur&mask != 0
			var dErr float64
			if isOne {
				// flipping 1→0: r' = r + B_b.
				dErr = 2*s.q[b] + g.At(b, b)
			} else {
				dErr = -2*s.q[b] + g.At(b, b)
			}
			// Flipping breaks a match with h (+μ) or restores one (−μ).
			dHam := s.Mu
			if isOne != (s.hw&mask != 0) {
				dHam = -s.Mu
			}
			if dErr+dHam < -1e-12 {
				cur, err = s.flipTo(cur, b, err)
				if dHam < 0 {
					ham--
				} else {
					ham++
				}
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	s.lastObj = err + s.Mu*float64(ham)
	return s.store(cur, z, i)
}

// store writes the packed code in one word compare-and-write and reports
// whether it changed (L <= 64, enforced by NewZKernel).
func (s *ZSolver) store(code uint64, z *retrieval.Codes, i int) bool {
	if z.Word64(i) == code {
		return false
	}
	z.SetWord64(i, code)
	return true
}
