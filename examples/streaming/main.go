// Streaming: ParMAC's §4.3 extension — machines and data can join and leave
// the ring between iterations while training continues. The program exits 1
// unless the iteration after the machine joins reports 4 machines, the one
// after a machine retires reports 3, and the final codes cover all 5000
// points.
package main

import (
	"fmt"
	"os"

	parmac "repro"
	"repro/internal/binauto"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	// The full corpus arrives over time; only the first 3000 points exist
	// when training starts, spread over 3 machines.
	ds, _ := parmac.SyntheticBenchmark(5000, 1, 32, 12, 3)
	shards := dataset.ShardIndices(3000, 3, nil)
	prob := binauto.NewParMACProblem(ds, shards, binauto.ParMACConfig{
		L: 12, Mu0: 1e-4, MuFactor: 2, Seed: 3,
	})
	// The engine's capacity is its fabric's: 3 machines now, a spare rank
	// for the one streamed in later, and the coordinator's rank last.
	net := cluster.NewNetwork(5)
	defer net.Close()
	eng := core.NewOn(prob, core.Config{P: 3, Epochs: 1, Seed: 3}, net, prob.Machine)
	defer eng.Shutdown()

	var machines []int // per iteration
	// E_BA is summed over the shards of the machines in the ring, so it
	// grows with the streamed-in data and shrinks with a retirement.
	report := func(tag string, r parmac.IterationResult) {
		fmt.Printf("%-28s iter=%d machines=%d codesChanged=%d E_BA=%.1f\n",
			tag, r.Iter, r.AliveMachines, r.ZChanged, r.EBA)
		machines = append(machines, r.AliveMachines)
	}

	for i := 0; i < 3; i++ {
		report("warm-up", eng.Iterate())
	}

	// 2000 new points arrive: bring up a new machine holding them. Its codes
	// are initialised by applying the current model ("applying the nested
	// model to x", §4.3).
	extra := make([]int, 2000)
	for i := range extra {
		extra[i] = 3000 + i
	}
	shard := prob.AddShard(ds, extra)
	rank := eng.AddMachine(shard)
	fmt.Printf("\n+ streamed in 2000 points on new machine rank %d\n\n", rank)

	for i := 0; i < 3; i++ {
		report("after machine added", eng.Iterate())
	}

	// Machine 1 is returned to the cluster; its data stop being visited.
	eng.Retire(1)
	fmt.Printf("\n- retired machine 1 (ring reconnected around it)\n\n")

	for i := 0; i < 2; i++ {
		report("after machine retired", eng.Iterate())
	}
	n := 0
	for i := 0; i < prob.NumShards(); i++ {
		n += prob.Shard(i).NumPoints()
	}
	fmt.Printf("\nfinal codes cover %d points\n", n)
	// Iteration 3 is the first after the add, iteration 6 the first after
	// the retirement.
	if machines[3] != 4 || machines[6] != 3 || n != ds.N {
		fmt.Printf("FAIL: want 4 machines after the add, 3 after the retirement and %d points covered; got %d, %d and %d\n",
			ds.N, machines[3], machines[6], n)
		os.Exit(1)
	}
}
