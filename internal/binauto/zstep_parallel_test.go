package binauto

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/retrieval"
)

// TestRunZStepParallelBitIdentical runs the Z step at every swept worker
// count, for both solver methods, and demands the codes, change count and
// objective sums of a plain per-point solver loop, bit for bit. The sums
// must also match the direct evaluations modelEQ and Model.EBA to
// 1e-9·(1+|E|). Run under -race (CI does) this also proves the workers share
// nothing but the read-only kernel.
func TestRunZStepParallelBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		l      int
		method ZMethod
	}{
		{"enumerate-L10", 10, ZEnumerate},
		{"alternate-L24", 24, ZAlternate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := randomModel(16, tc.l, 42)
			ds := dataset.GISTLike(500, 16, 4, 43)
			init := m.Encode(ds, 1)
			want := cloneCodes(init)
			s := NewZKernel(m, 0.5, tc.method).NewSolver()
			wantChanged := 0
			var wantEQ, wantEBA float64
			for i := 0; i < ds.N; i++ {
				if s.Solve(ds.Point(i, nil), want, i) {
					wantChanged++
				}
				wantEQ += s.lastObj
				wantEBA += s.lastEBA
			}
			if !within(wantEQ, modelEQ(m, ds, want, 0.5)) || !within(wantEBA, m.EBA(ds)) {
				t.Fatalf("sums E_Q %v, E_BA %v; direct %v, %v", wantEQ, wantEBA, modelEQ(m, ds, want, 0.5), m.EBA(ds))
			}
			for _, workers := range sweepWorkers {
				got := cloneCodes(init)
				changed, eq, eba := NewZKernel(m, 0.5, tc.method).Run(ds, got, workers)
				if changed != wantChanged {
					t.Fatalf("workers=%d: changed %d, serial %d", workers, changed, wantChanged)
				}
				if !equalCodes(got, want) {
					t.Fatalf("workers=%d: codes differ from the serial loop", workers)
				}
				if eq != wantEQ || eba != wantEBA {
					t.Fatalf("workers=%d: sums E_Q %v, E_BA %v; serial %v, %v", workers, eq, eba, wantEQ, wantEBA)
				}
			}
		})
	}
}

// TestZKernelSharedAcrossSolvers exercises the hoisted construction: one
// kernel, many solvers, same answers as independently constructed solvers.
func TestZKernelSharedAcrossSolvers(t *testing.T) {
	m := randomModel(8, 12, 7)
	ds := dataset.GISTLike(40, 8, 3, 8)
	k := NewZKernel(m, 0.25, ZAlternate)
	zShared := retrieval.NewCodes(ds.N, 12)
	zFresh := retrieval.NewCodes(ds.N, 12)
	for i := 0; i < ds.N; i++ {
		x := ds.Point(i, nil)
		k.NewSolver().Solve(x, zShared, i)
		NewZKernel(m, 0.25, ZAlternate).NewSolver().Solve(x, zFresh, i)
	}
	if !equalCodes(zShared, zFresh) {
		t.Fatal("solvers over a shared kernel disagree with per-call construction")
	}
}

// TestZKernelSnapshotsModel pins the staleness contract: NewZKernel clones
// the model, so mutating the caller's weights in place afterwards does not
// perturb an existing kernel's answers.
func TestZKernelSnapshotsModel(t *testing.T) {
	m := randomModel(8, 10, 21)
	ds := dataset.GISTLike(30, 8, 3, 22)
	k := NewZKernel(m, 0.25, ZEnumerate)
	zBefore := retrieval.NewCodes(ds.N, 10)
	for i := 0; i < ds.N; i++ {
		k.NewSolver().Solve(ds.Point(i, nil), zBefore, i)
	}
	for _, e := range m.Enc {
		e.W[0] += 1
	}
	m.Dec.W.Set(0, 0, m.Dec.W.At(0, 0)+1)
	zAfter := retrieval.NewCodes(ds.N, 10)
	for i := 0; i < ds.N; i++ {
		k.NewSolver().Solve(ds.Point(i, nil), zAfter, i)
	}
	if !equalCodes(zAfter, zBefore) {
		t.Fatal("kernel answers changed after mutating the source model")
	}
}

// TestGramObjectiveMatchesPointObjective is the property test of the Gram
// identities: the objective value the solver reports (from the zᵀGz and
// half-tables for ZEnumerate, accumulated over flips against G = W·Wᵀ for
// ZAlternate) must match the O(D) PointObjective evaluation of the chosen
// code to 1e-9·(1+|obj|), over random models, methods and penalty values.
func TestGramObjectiveMatchesPointObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		d := 4 + rng.Intn(12)
		l := 2 + rng.Intn(9) // enumeration stays cheap up to L=10
		mu := []float64{0, 1e-3, 0.5, 3}[trial%4]
		method := []ZMethod{ZEnumerate, ZAlternate}[trial%2]
		m := randomModel(d, l, int64(1000+trial))
		ds := dataset.GISTLike(6, d, 2, int64(2000+trial))
		k := NewZKernel(m, mu, method)
		s := k.NewSolver()
		z := retrieval.NewCodes(ds.N, l)
		for i := 0; i < ds.N; i++ {
			x := ds.Point(i, nil)
			s.Solve(x, z, i)
			want := PointObjective(m, x, z, i, mu)
			if diff := math.Abs(s.lastObj - want); diff > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("trial %d (L=%d D=%d mu=%g method=%d) point %d: incremental objective %v vs direct %v (|Δ|=%g)",
					trial, l, d, mu, method, i, s.lastObj, want, diff)
			}
		}
	}
}

// TestParMACParallelMatchesSerial trains the full distributed BA with and
// without Z-step parallelism and requires identical codes and models — the
// knob must be a pure speed knob.
func TestParMACParallelMatchesSerial(t *testing.T) {
	ds := dataset.GISTLike(240, 8, 4, 77)
	build := func(parallel int) *ParMACProblem {
		shards := dataset.ShardIndices(ds.N, 3, nil)
		return NewParMACProblem(ds, shards, ParMACConfig{
			L: 8, Mu0: 1e-3, Seed: 77, Parallel: parallel,
		})
	}
	run := func(p *ParMACProblem) *retrieval.Codes {
		for it := 0; it < 3; it++ {
			p.OnIterationStart(it)
			model := p.Submodels()
			for sh := 0; sh < p.NumShards(); sh++ {
				p.ZStep(sh, model)
			}
		}
		return gatherCodes(p.shards)
	}
	serial := run(build(0))
	parallel := run(build(4))
	if !equalCodes(serial, parallel) {
		t.Fatal("ParMAC Z step with Parallel=4 diverged from serial")
	}
}
