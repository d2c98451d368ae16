// Deepnet: MAC and ParMAC are not BA-specific — here a K=2-hidden-layer
// sigmoid net is trained by circulating its hidden units through the ring
// (§3.2: the W step splits into independent single-unit regressions; the Z
// step is a per-point generalised proximal operator). ParMAC on one machine
// is MAC itself, so the P=1 run is the serial reference for the P=4 run. The
// program exits 1 unless each run ends below the initial nested error.
package main

import (
	"fmt"
	"math/rand"
	"os"

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
	initial := start.NestedError(xs, ys)
	fmt.Printf("initial nested error: %.2f\n", initial)

	for _, p := range []int{1, 4} {
		prob := macnet.NewParMACProblem(start, xs, ys, dataset.ShardIndices(n, p, nil), macnet.ParMACConfig{
			Mu0: 1, MuFactor: 2, Eta: 1, ZIters: 10,
		})
		eng := parmac.New(prob, parmac.Config{P: p, Epochs: 3, Seed: 9}, prob.Machine)
		hist := eng.Run(10)
		eng.Shutdown()
		// The machines' Z steps report E_Q and the nested error (EBA).
		last := hist[len(hist)-1]
		fmt.Printf("ParMAC (P=%d) final:   %.2f (E_Q %.2f, %d circulating submodels)\n",
			p, last.EBA, last.EQ, len(prob.Submodels()))
		if last.EBA >= initial {
			fmt.Printf("FAIL: P=%d ended at nested error %.2f, not below the initial %.2f\n", p, last.EBA, initial)
			os.Exit(1)
		}
	}
}
