package binauto

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/retrieval"
	"repro/internal/sgd"
	"repro/internal/svm"
	"repro/internal/vec"
)

// This file is the W step of Fig. 1, fused. Done per bit, the W step makes
// one full pass over the data per bit-SVM per epoch, plus the η0
// calibration trials — reading every point L times per pass round. The
// fused trainer inverts the loop nest: one pts.Point read per point visit
// feeds the updates of every bit, the η0 ladder is evaluated for all bits
// inside one shared pass per candidate, and the per-step SVM update uses
// svm.StepFused (scale and margin dot in a single walk over w). The step
// takes any sgd.Points, so it reads a Point copy per point visit; shared by
// all L bits, that copy is amortised, unlike in a ParMAC visit, where one
// submodel walks the shard alone and so reads its rows in place
// (parmac.go).
//
// Equivalence contract: each bit's sequence of (sample, label, η) updates is
// exactly the per-bit loop's (svm.Linear.AutoTune, then TrainPass per
// epoch), so the trained encoders are bit-for-bit that loop's whenever the
// per-bit sample orders coincide — always for the calibration passes
// (deterministic leading sample) and for training passes when cfg.Shuffle is
// false. With cfg.Shuffle set, the fused step draws ONE permutation per epoch
// shared by every bit (a per-bit loop would draw a fresh permutation per bit
// per epoch); both are valid stochastic orders, but the realisations differ.
// The per-bit reference lives in the tests (TrainWStepSerial).
//
// Parallelism: bits are split into contiguous groups over cfg-many
// goroutines, each with its own point buffer and scratch; bits never share
// mutable state, so the result is bit-identical for any worker count. The
// decoder fit runs on the popcount-Gram WKernel with the same worker budget.

// TrainWStep performs the W step of Fig. 1 — auto-tune and train the L
// per-bit SVMs, then refit the decoder exactly — as a fused single pass per
// epoch over the data, with up to workers goroutines (core.Cores semantics)
// over bit groups.
func TrainWStep(m *Model, pts sgd.Points, z *retrieval.Codes, cfg *MACConfig, rng *rand.Rand, workers int) error {
	n := pts.NumPoints()
	l := m.L()
	// Orders are drawn up front on the caller's goroutine: one per epoch,
	// shared by every bit, so rng consumption is independent of the worker
	// count and the bit-group fan-out sees only read-only order slices.
	orders := make([][]int, cfg.SVMEpochs)
	for ep := range orders {
		orders[ep] = sgd.Order(n, cfg.Shuffle, rng)
	}
	workers = core.Cores(workers)
	bitWorkers := workers
	if bitWorkers > l {
		bitWorkers = l
	}
	core.ParallelChunks(l, bitWorkers, func(_, lo, hi int) {
		buf := make([]float64, m.D())
		autoTuneFusedBits(m, pts, z, lo, hi, buf)
		for _, order := range orders {
			trainPassFusedBits(m, pts, z, lo, hi, order, buf)
		}
	})
	return m.FitDecoderExact(pts, z, cfg.DecLambda, workers)
}

// trainPassFusedBits runs one SGD pass of bits [lo, hi) over the given
// order: each point is read once and fed to every bit's StepFused with that
// bit's own schedule — the same (sample, label, η) sequence per bit as the
// serial per-bit TrainPass.
func trainPassFusedBits(m *Model, pts sgd.Points, z *retrieval.Codes, lo, hi int, order []int, buf []float64) {
	for _, i := range order {
		x := pts.Point(i, buf)
		for b := lo; b < hi; b++ {
			y := -1.0
			if z.Bit(i, b) {
				y = 1
			}
			e := m.Enc[b]
			e.StepFused(x, y, e.Sched.Next())
		}
	}
}

// autoTuneFusedBits reproduces svm.Linear.AutoTune for bits [lo, hi) with
// the data passes shared: for each η0 candidate of the common ladder, one
// trial-training pass and one loss pass over the leading sample update all
// bits' trial models, instead of each bit re-reading the sample per
// candidate. Per bit, the trial sequence, hinge-loss accumulation and
// selection rule are exactly AutoTune's, so the chosen η0 values are
// identical.
func autoTuneFusedBits(m *Model, pts sgd.Points, z *retrieval.Codes, lo, hi int, buf []float64) {
	n := sgd.TuningSampleSize(pts.NumPoints())
	if n == 0 {
		return
	}
	etas := svm.TuneLadder() // AutoTune's ladder, from the one definition
	nb := hi - lo
	trials := make([]*svm.Linear, nb)
	hinge := make([]float64, nb)
	losses := make([][]float64, nb)
	for j := range losses {
		losses[j] = make([]float64, len(etas))
	}
	for ci, eta0 := range etas {
		for j := range trials {
			e := m.Enc[lo+j]
			t := e.Clone()
			t.Sched = sgd.NewSchedule(eta0, e.Lambda)
			trials[j] = t
		}
		// Trial pass over the leading sample (AutoTune's sample order is
		// 0..n-1, no rng).
		for i := 0; i < n; i++ {
			x := pts.Point(i, buf)
			for j, t := range trials {
				y := -1.0
				if z.Bit(i, lo+j) {
					y = 1
				}
				t.StepFused(x, y, t.Sched.Next())
			}
		}
		// Hinge-loss pass, accumulated per bit in sample order like AvgLoss.
		for j := range hinge {
			hinge[j] = 0
		}
		for i := 0; i < n; i++ {
			x := pts.Point(i, buf)
			for j, t := range trials {
				y := -1.0
				if z.Bit(i, lo+j) {
					y = 1
				}
				if h := 1 - y*t.Margin(x); h > 0 {
					hinge[j] += h
				}
			}
		}
		for j, t := range trials {
			losses[j][ci] = hinge[j]/float64(n) + 0.5*t.Lambda*vec.SqNorm(t.W)
		}
	}
	for j := 0; j < nb; j++ {
		e := m.Enc[lo+j]
		e.Sched.Eta0 = sgd.PickEta0(etas, losses[j])
		e.Sched.Lambda = e.Lambda
		e.Sched.SetSteps(0)
	}
}
