package core

// Adapter is the part of a Problem that belongs to MAC/ParMAC rather than to
// a model family: the circulating submodel set and the penalty schedule
// μᵢ = μ0·aⁱ (§3). A family embeds it and adds its shards, its Z step and its
// model assembly. Adapter implements IterationHook and ModelSyncHook; an
// embedder with per-iteration state of its own overrides OnIterationStart
// and calls the embedded method first.
type Adapter struct {
	subs              []Submodel
	mu0, muFactor, mu float64
}

// NewAdapter holds submodels subs (IDs 0..M-1, in order) and the schedule
// μᵢ = mu0·muFactorⁱ; muFactor <= 1 means 2.
func NewAdapter(subs []Submodel, mu0, muFactor float64) Adapter {
	if muFactor <= 1 {
		muFactor = 2
	}
	return Adapter{subs: subs, mu0: mu0, muFactor: muFactor, mu: mu0}
}

// Submodels implements Problem with a fresh slice of the authoritative set.
func (a *Adapter) Submodels() []Submodel { return append([]Submodel(nil), a.subs...) }

// OnIterationStart implements IterationHook: μ is μ0 multiplied by the factor
// iter times, the same rounding on every machine.
func (a *Adapter) OnIterationStart(iter int) {
	a.mu = a.mu0
	for i := 0; i < iter; i++ {
		a.mu *= a.muFactor
	}
}

// Mu returns the current penalty parameter.
func (a *Adapter) Mu() float64 { return a.mu }

// OnModelSync implements ModelSyncHook by installing the engine's set.
func (a *Adapter) OnModelSync(model []Submodel) { a.subs = append(a.subs[:0], model...) }

// CountChunks runs chunk over contiguous ranges of [0, n) on
// ClampWorkers(n, Cores(parallel)) goroutines and returns the sum of the
// counts they return, as a Z step counts the coordinates it changed.
func CountChunks(n, parallel int, chunk func(lo, hi int) int) int {
	workers := ClampWorkers(n, Cores(parallel))
	counts := make([]int, workers)
	ParallelChunks(n, workers, func(w, lo, hi int) { counts[w] = chunk(lo, hi) })
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}
