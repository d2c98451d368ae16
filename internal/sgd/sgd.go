// Package sgd implements the stochastic-gradient-descent core shared by the
// ParMAC submodel trainers: Bottou's step-size schedule, the automatic η0
// tuning on a small leading sample described in §8.1 of the paper ("the SGD
// step size is tuned automatically in each iteration by examining the first
// 1000 datapoints"), and the sample-ordering helpers used for within-machine
// minibatch shuffling (§4.3).
package sgd

import (
	"math"
	"math/rand"
)

// Points is the read-only sample access interface shared by trainers. It is
// satisfied by *dataset.Dataset and by the shard views in internal/binauto.
type Points interface {
	NumPoints() int
	// Point writes point i into dst (allocated when nil) and returns it.
	Point(i int, dst []float64) []float64
}

// Schedule is Bottou's SVM-SGD learning-rate schedule
//
//	η_t = η0 / (1 + λ·η0·t)
//
// which satisfies the Robbins–Monro conditions required for the ParMAC
// convergence guarantee (§6): η_t → 0, Σ η_t = ∞, Σ η_t² < ∞.
type Schedule struct {
	Eta0   float64
	Lambda float64
	t      float64
}

// NewSchedule returns a schedule starting at step count t=0.
func NewSchedule(eta0, lambda float64) *Schedule {
	if eta0 <= 0 {
		panic("sgd: eta0 must be positive")
	}
	return &Schedule{Eta0: eta0, Lambda: lambda}
}

// Next returns the current learning rate and advances the step counter.
func (s *Schedule) Next() float64 {
	eta := s.Eta0 / (1 + s.Lambda*s.Eta0*s.t)
	s.t++
	return eta
}

// Steps reports how many steps have been taken.
func (s *Schedule) Steps() float64 { return s.t }

// SetSteps sets the step counter; used when a circulating submodel resumes
// training on another machine and must continue its schedule where it left
// off.
func (s *Schedule) SetSteps(t float64) { s.t = t }

// TuneEta0 picks η0 by a multiplicative line search over candidates
// lo, lo·factor, …, up to hi, tried in that order. trial(η0) must run a short
// training pass from the *current* parameters on a small sample (without
// mutating them) and return the resulting loss; TuneEta0 returns the
// candidate with the lowest finite loss, the earlier one on a tie. This
// mirrors the calibration pass of Bottou's sgd code used by the paper. If
// every candidate produces a non-finite loss, lo is returned.
func TuneEta0(lo, hi, factor float64, trial func(eta0 float64) float64) float64 {
	if lo <= 0 || hi < lo || factor <= 1 {
		panic("sgd: invalid TuneEta0 range")
	}
	best, bestLoss := lo, math.Inf(1)
	for eta := lo; eta <= hi*(1+1e-12); eta *= factor {
		if loss := trial(eta); !math.IsNaN(loss) && !math.IsInf(loss, 0) && loss < bestLoss {
			best, bestLoss = eta, loss
		}
	}
	return best
}

// TuningSampleSize returns min(n, 1000): the paper examines the first 1000
// points when auto-tuning the step size.
func TuningSampleSize(n int) int {
	if n < 1000 {
		return n
	}
	return 1000
}

// Order returns the index sequence for one pass over n samples. With
// shuffle=false it is 0..n-1 in order (the deterministic "incremental
// gradient" regime whose convergence §6 cites); with shuffle=true it is a
// fresh permutation from rng.
func Order(n int, shuffle bool, rng *rand.Rand) []int {
	if !shuffle {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return rng.Perm(n)
}
