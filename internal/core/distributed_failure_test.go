package core_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
	"repro/internal/core"
)

// Fault recovery in the distributed shape, on both fabrics: a worker's link
// drops mid-W-step without a goodbye (the in-process stand-in for a SIGKILL —
// the real-process variant lives in cmd/parmac-train's e2e test), every lost
// submodel is rescued from a survivor's replica (RescueReply), and the
// coordinator finishes on the survivors. Checked by the same
// schedule-independent invariant as the in-process drills, on the wire
// problem's visit logs.

// killWorker1 runs two iterations of a 3-worker cluster on fabric in which
// worker 1 dies just before its (afterSends+1)-th send of the first W step.
// External packages cannot name the token tag; AnyTag is exact here (see
// KillSpec).
func killWorker1(t *testing.T, fabric string, afterSends int) {
	t.Helper()
	const P, M, shards, points = 3, 6, 3, 4
	cfg := core.Config{P: P, Epochs: 2, Seed: 12, RescueTimeout: 2 * time.Second}
	coord, workers, res := runDistributed(t, fabric, cfg, 2, shards, points, M,
		chaos.KillSpec{Rank: 1, Tag: chaos.AnyTag, AfterSends: afterSends})

	recovered := false
	for _, ev := range res[0].Failures {
		recovered = recovered || (ev.Rank == 1 && ev.LostToken >= 0)
	}
	if !recovered {
		t.Errorf("no lost token recorded: %+v", res[0].Failures)
	}
	core.CheckVisitLogs(t, core.Drill{
		Epochs: 2, Points: points, Results: res, Subs: wireLogs(coord),
		// Each surviving worker's own shard-local Z state.
		SurvivorZ: []float64{workers[0].shards[0].z[0], workers[2].shards[2].z[0]},
		Iters:     []core.RingIter{{Alive: []int{0, 1, 2}, Died: []int{1}}, {Alive: []int{0, 2}}},
	})
}

func TestDistributedFaultRecovery(t *testing.T) {
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) { killWorker1(t, fabric, 3) })
	}
}

// TestDistributedDeathAcrossWStep moves the kill point across the W step:
// worker 1 sends 16 tokens in it (14 forwards, 2 finishes), so these are its
// first send, the turn of the epochs, and its last.
func TestDistributedDeathAcrossWStep(t *testing.T) {
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			for _, k := range []int{0, 8, 15} {
				killWorker1(t, fabric, k)
				if t.Failed() {
					t.Fatalf("kill before send %d broke the invariant", k)
				}
			}
		})
	}
}

// TestWorkersLeaveWhenCoordinatorDies: once the coordinator's link is gone
// no shutdown can reach the machines, so each must take the coordinator's
// peer-down as its cue to return rather than wait for it forever.
func TestWorkersLeaveWhenCoordinatorDies(t *testing.T) {
	const P, M, points = 3, 6, 4
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			fab, err := cluster.NewFabric(fabric, P+1)
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close()
			var wg sync.WaitGroup
			for r := 0; r < P; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					core.RunWorker(fab.Comm(r), newWireProblem(P, points, M), r, core.WorkerOptions{Seed: core.WorkerSeed(12, r)})
				}(r)
			}
			eng := core.NewDistributed(newWireProblem(P, points, M), core.Config{P: P, Epochs: 1, Seed: 12}, fab.Comm(P))
			eng.Iterate()
			fab.(cluster.EndpointFabric).Endpoint(P).Abort()

			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("workers still running 10s after the coordinator died")
			}
		})
	}
}
