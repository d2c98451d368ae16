// Package floatorder is the parmac-vet fixture for the floatorder analyzer:
// float accumulation into cross-chunk shared storage inside a
// core.ParallelChunks or core.CountChunks closure makes the summation order
// depend on the worker count; the sanctioned pattern is per-chunk slots
// reduced on a fixed grid.
package floatorder

import "repro/internal/core"

func sharedScalar(xs []float64, workers int) float64 {
	var sum float64
	core.ParallelChunks(len(xs), core.Cores(workers), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want `float accumulation into "sum" shared across ParallelChunks chunks`
		}
	})
	return sum
}

func sharedSlot(xs []float64, workers int) float64 {
	acc := make([]float64, 1)
	core.ParallelChunks(len(xs), core.Cores(workers), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			acc[0] += xs[i] // want `float accumulation into "acc\[0\]" shared across ParallelChunks chunks`
		}
	})
	return acc[0]
}

// perWorkerSlots is the sanctioned pattern: each chunk writes its own slot
// (indexed by closure state), then a serial fixed-order reduce follows.
func perWorkerSlots(xs []float64, workers int) float64 {
	w := core.Cores(workers)
	parts := make([]float64, w)
	core.ParallelChunks(len(xs), w, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			parts[worker] += xs[i]
		}
	})
	var sum float64
	for _, p := range parts {
		sum += p
	}
	return sum
}

// integerCounter is exempt: integer addition is exactly associative.
func integerCounter(xs []float64, workers int, counts []int64) int {
	total := 0
	core.ParallelChunks(len(xs), core.Cores(workers), func(w, lo, hi int) {
		n := 0
		for i := lo; i < hi; i++ {
			if xs[i] > 0 {
				n++
			}
		}
		counts[w] = int64(n)
	})
	for _, c := range counts {
		total += int(c)
	}
	return total
}

// closureLocal accumulates into a chunk-local variable, which is fine.
func closureLocal(xs []float64, workers int, out []float64) {
	core.ParallelChunks(len(xs), core.Cores(workers), func(w, lo, hi int) {
		var local float64
		for i := lo; i < hi; i++ {
			local += xs[i]
		}
		out[w] = local
	})
}

// countShared: CountChunks closures are checked like ParallelChunks ones.
func countShared(xs []float64, workers int) float64 {
	var sum float64
	core.CountChunks(len(xs), workers, func(lo, hi int) int {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want `float accumulation into "sum" shared across CountChunks chunks`
		}
		return 0
	})
	return sum
}

// countLocal keeps its float work inside the chunk; only the count leaves.
func countLocal(xs []float64, workers int) int {
	return core.CountChunks(len(xs), workers, func(lo, hi int) int {
		var local float64
		for i := lo; i < hi; i++ {
			local += xs[i]
		}
		return int(local)
	})
}
