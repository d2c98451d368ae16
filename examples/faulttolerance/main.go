// Fault tolerance: a machine dies in the middle of a W step — killed by the
// chaos transport without a word, like a SIGKILL. The coordinator learns of
// the death from the fabric, recovers the submodel the machine held from the
// redundant copy on its ring predecessor, repairs the routes to skip the dead
// machine, and training finishes on the survivors (§4.3). The program exits 1
// unless iteration 3 reports the death, at least one recovered submodel and
// three machines left.
package main

import (
	"fmt"
	"log"
	"os"

	parmac "repro"
	"repro/internal/binauto"
	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	const machines = 4
	ds, queries := parmac.SyntheticBenchmark(3000, 80, 32, 12, 5)
	shards := dataset.ShardIndices(ds.N, machines, nil)
	prob := binauto.NewParMACProblem(ds, shards, binauto.ParMACConfig{
		L: 12, Mu0: 1e-4, MuFactor: 2, Seed: 5,
	})
	// The machines' messages cross a chaos fabric, so a death can be placed
	// at an exact protocol point. The last rank is the coordinator's.
	fab, err := chaos.New(cluster.NewNetwork(machines + 1))
	if err != nil {
		log.Fatal(err)
	}
	defer fab.Close()
	eng := core.NewOn(prob, core.Config{P: machines, Epochs: 2, Seed: 5}, fab, prob.Machine)
	defer eng.Shutdown()

	var died, recovered bool
	alive := 0
	for it := 0; it < 8; it++ {
		if it == 3 {
			// Machine 2 will die during the W step of iteration 3, holding
			// the submodel it was about to forward for the 8th time.
			fab.Arm(chaos.KillSpec{Rank: 2, Tag: chaos.AnyTag, AfterSends: 7})
		}
		res := eng.Iterate()
		// E_BA sums the shards of the machines alive for this Z step, so it
		// drops when machine 2's quarter of the data leaves with it.
		fmt.Printf("iter=%d machines=%d E_BA=%.1f\n", res.Iter, res.AliveMachines, res.EBA)
		// One event for the death itself, then one per submodel lost with the
		// machine: the one it held plus those queued in its inbox.
		for _, f := range res.Failures {
			switch {
			case f.LostToken < 0:
				fmt.Printf("    machine %d DIED\n", f.Rank)
			case f.FromRank >= 0:
				fmt.Printf("    submodel %d recovered from machine %d\n", f.LostToken, f.FromRank)
			default:
				fmt.Printf("    submodel %d recovered from the coordinator's copy\n", f.LostToken)
			}
			if it == 3 {
				died = died || (f.Rank == 2 && f.LostToken < 0)
				recovered = recovered || (f.Rank == 2 && f.LostToken >= 0 && f.Recovered)
			}
		}
		alive = res.AliveMachines
	}
	if !died || !recovered || alive != machines-1 {
		fmt.Printf("FAIL: want machine 2 dead with a recovered submodel in iteration 3 and %d machines after; got died=%v recovered=%v machines=%d\n",
			machines-1, died, recovered, alive)
		os.Exit(1)
	}

	// The model is complete and usable despite losing a quarter of the data.
	model := prob.AssembleModel()
	base := model.Encode(ds, 1)
	qc := model.Encode(queries, 1)
	fmt.Printf("\nmodel intact after failure: L=%d, index=%d bytes, %d queries encoded\n",
		model.L(), base.MemoryBytes(), qc.N)
}
