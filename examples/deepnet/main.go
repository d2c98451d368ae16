// Deepnet: MAC and ParMAC are not BA-specific — here a K=2-hidden-layer
// sigmoid net is trained by circulating its hidden units through the ring
// (§3.2: the W step splits into independent single-unit regressions; the Z
// step is a per-point generalised proximal operator). ParMAC on one machine
// is MAC itself, so the P=1 run is the serial reference for the P=4 run.
package main

import (
	"fmt"
	"math/rand"

	parmac "repro"
	"repro/internal/dataset"
	"repro/internal/macnet"
	"repro/internal/vec"
)

func main() {
	// Regression task: y = σ(2a − b + ab) with 2-d inputs, targets in (0,1).
	const n = 1200
	rng := rand.New(rand.NewSource(9))
	xs := vec.NewMatrix(n, 2)
	ys := vec.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		xs.Set(i, 0, a)
		xs.Set(i, 1, b)
		ys.Set(i, 0, macnet.Sigmoid(2*a-b+a*b))
	}

	// A 2-6-4-1 net: 10 hidden units + 1 output unit = 11 circulating
	// submodels.
	start := macnet.NewNet([]int{2, 6, 4, 1})
	start.InitRandom(rng, 0.3)
	fmt.Printf("initial nested error: %.2f\n", start.NestedError(xs, ys))

	for _, p := range []int{1, 4} {
		shards := dataset.ShardIndices(n, p, nil)
		prob := macnet.NewParMACProblem(start, xs, ys, shards, macnet.ParMACConfig{
			Mu0: 1, MuFactor: 2, Eta: 1, ZIters: 10,
		})
		eng := parmac.New(prob, parmac.Config{P: p, Epochs: 3, Seed: 9})
		eng.Run(10)
		eng.Shutdown()
		eq, nested := prob.PenaltyAndNested()
		fmt.Printf("ParMAC (P=%d) final:   %.2f (E_Q %.2f, %d circulating submodels)\n",
			p, nested, eq, len(prob.Submodels()))
	}
}
