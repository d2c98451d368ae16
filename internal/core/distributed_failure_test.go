package core_test

import (
	"testing"
	"time"

	"repro/internal/cluster/chaos"
	"repro/internal/core"
)

// Fault recovery over real sockets: a worker's connection drops mid-W-step
// without a goodbye (the in-process stand-in for a SIGKILL — the real-process
// variant lives in cmd/parmac-train's e2e test), every lost submodel is
// rescued over the wire (RescueReply), and the coordinator finishes on the
// survivors. Checked by the same schedule-independent invariant as the
// in-process drills, on the wire problem's visit logs.

// killWorker1 runs two iterations of a 3-worker TCP cluster in which worker
// 1 dies just before its (afterSends+1)-th send of the first W step. External
// packages cannot name the token tag; AnyTag is exact here (see KillSpec).
func killWorker1(t *testing.T, afterSends int) {
	t.Helper()
	const P, M, shards, points = 3, 6, 3, 4
	cfg := core.Config{
		P: P, Epochs: 2, Replicas: true, Seed: 12,
		RescueTimeout: 2 * time.Second, RescueRetries: 2,
	}
	coord, workers, res := runDistributed(t, cfg, 2, shards, points, M,
		chaos.KillSpec{Rank: 1, Tag: chaos.AnyTag, AfterSends: afterSends})

	recovered := false
	for _, ev := range res[0].Failures {
		recovered = recovered || (ev.Rank == 1 && ev.LostToken >= 0)
	}
	if !recovered {
		t.Errorf("no lost token recorded: %+v", res[0].Failures)
	}
	subs := make([]core.SubLog, M)
	for i, s := range coord.subs {
		subs[i] = core.SubLog{Visits: s.Visits, Sum: s.Sum, Count: s.Count}
	}
	core.CheckVisitLogs(t, core.Drill{
		Epochs: 2, Points: points, Results: res, Subs: subs,
		// Each surviving worker's own shard-local Z state.
		SurvivorZ: []float64{workers[0].shards[0].z[0], workers[2].shards[2].z[0]},
		Iters:     []core.RingIter{{Alive: []int{0, 1, 2}, Died: []int{1}}, {Alive: []int{0, 2}}},
	})
}

func TestDistributedFaultRecovery(t *testing.T) { killWorker1(t, 3) }

// TestDistributedDeathAcrossWStep moves the kill point across the W step:
// worker 1 sends 16 tokens in it (14 forwards, 2 finishes), so these are its
// first send, the turn of the epochs, and its last.
func TestDistributedDeathAcrossWStep(t *testing.T) {
	for _, k := range []int{0, 8, 15} {
		killWorker1(t, k)
		if t.Failed() {
			t.Fatalf("kill before send %d broke the invariant", k)
		}
	}
}
