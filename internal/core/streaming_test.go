package core_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// TestStreamingAddAndRetire streams a machine in, retires another and
// re-adds a machine on the rank the retirement freed, on every transport.
// The engine's capacity is its fabric's: 4 ranks are 3 machine slots and
// the coordinator's.
func TestStreamingAddAndRetire(t *testing.T) {
	const points = 4
	for _, name := range cluster.TransportNames() {
		t.Run(name, func(t *testing.T) {
			fab, err := cluster.NewFabric(name, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close()
			p := newWireProblem(3, points, 4) // 3 shards, 2 machines at the start
			e := core.NewOn(p, core.Config{P: 2, Epochs: 1, Seed: 13}, fab, p.machine)
			defer e.Shutdown()

			seen := 0
			// step runs one iteration and checks that it ran on, and
			// visited the points of, exactly the given number of machines.
			step := func(what string, machines int) {
				t.Helper()
				r := e.Iterate()
				visited := p.wires()[0].Count - seen
				seen += visited
				if r.AliveMachines != machines || visited != machines*points {
					t.Fatalf("%s: %d machines visited %d points, want %d and %d",
						what, r.AliveMachines, visited, machines, machines*points)
				}
			}
			step("start", 2)
			if rank := e.AddMachine(2); rank != 2 {
				t.Fatalf("new machine on rank %d, want 2", rank)
			}
			step("after add", 3)
			e.Retire(0)
			step("after retire", 2)
			if rank := e.AddMachine(0); rank != 0 {
				t.Fatalf("re-added machine on rank %d, want the freed rank 0", rank)
			}
			step("after re-add", 3)
		})
	}
}
