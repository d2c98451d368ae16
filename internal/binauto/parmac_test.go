package binauto

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/retrieval"
)

func buildProblem(n, d, l, p int, seed int64) (*ParMACProblem, *dataset.Dataset) {
	ds := dataset.GISTLike(n, d, 6, seed)
	shards := dataset.ShardIndices(n, p, nil)
	prob := NewParMACProblem(ds, shards, ParMACConfig{
		L: l, Mu0: 1e-3, MuFactor: 2, SVMLambda: 1e-4, Seed: seed,
	})
	return prob, ds
}

func TestParMACProblemShapes(t *testing.T) {
	prob, _ := buildProblem(120, 10, 6, 3, 1)
	if prob.NumShards() != 3 {
		t.Fatalf("shards = %d", prob.NumShards())
	}
	subs := prob.Submodels()
	if len(subs) != 12 { // L encoders + L decoder groups
		t.Fatalf("submodels = %d, want 12", len(subs))
	}
	for i, sm := range subs {
		if sm.ID() != i {
			t.Fatalf("submodel %d has ID %d", i, sm.ID())
		}
	}
	total := 0
	for i := 0; i < 3; i++ {
		total += prob.Shard(i).NumPoints()
	}
	if total != 120 {
		t.Fatalf("shard points = %d", total)
	}
}

func TestDecoderGroupsPartitionDimensions(t *testing.T) {
	prob, _ := buildProblem(60, 10, 4, 2, 2)
	seen := map[int]bool{}
	for _, dsub := range prob.decs {
		for _, dim := range dsub.dims {
			if seen[dim] {
				t.Fatalf("dimension %d in two groups", dim)
			}
			seen[dim] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("groups cover %d of 10 dims", len(seen))
	}
	// Groups are balanced within 1.
	minSz, maxSz := len(prob.decs[0].dims), len(prob.decs[0].dims)
	for _, dsub := range prob.decs {
		if len(dsub.dims) < minSz {
			minSz = len(dsub.dims)
		}
		if len(dsub.dims) > maxSz {
			maxSz = len(dsub.dims)
		}
	}
	if maxSz-minSz > 1 {
		t.Fatalf("group sizes unbalanced: %d..%d", minSz, maxSz)
	}
}

func TestAssembleModelRoundTrip(t *testing.T) {
	prob, _ := buildProblem(50, 8, 4, 2, 3)
	// Stamp recognisable values into submodels.
	prob.encs[2].svm.W[3] = 42
	prob.decs[1].w.Set(2, 0, 7) // bit 2, first owned dim of group 1
	dim := prob.decs[1].dims[0]
	prob.decs[1].c[0] = -5
	m := prob.AssembleModel()
	if m.Enc[2].W[3] != 42 {
		t.Fatal("encoder weights lost in assembly")
	}
	if m.Dec.W.At(2, dim) != 7 {
		t.Fatal("decoder weights misplaced in assembly")
	}
	if m.Dec.C[dim] != -5 {
		t.Fatal("decoder bias misplaced in assembly")
	}
}

func TestMuScheduleAdvances(t *testing.T) {
	prob, _ := buildProblem(40, 6, 4, 2, 4)
	prob.OnIterationStart(0)
	if prob.Mu() != 1e-3 {
		t.Fatalf("mu(0) = %v", prob.Mu())
	}
	prob.OnIterationStart(3)
	if prob.Mu() != 1e-3*8 {
		t.Fatalf("mu(3) = %v", prob.Mu())
	}
}

func TestParMACRunImprovesEQ(t *testing.T) {
	prob, _ := buildProblem(300, 8, 6, 4, 5)
	eng := core.New(prob, core.Config{P: 4, Epochs: 1, Seed: 5})
	defer eng.Shutdown()

	prob.OnIterationStart(0)
	eq0, eba0 := prob.Stats()
	eng.Run(6)
	_, eba1 := prob.Stats()
	if eba1 > eba0 {
		t.Fatalf("ParMAC did not reduce E_BA: %v -> %v", eba0, eba1)
	}
	_ = eq0
}

func TestParMACDeterministicNoShuffle(t *testing.T) {
	run := func() *retrieval.Codes {
		prob, _ := buildProblem(150, 6, 4, 3, 6)
		eng := core.New(prob, core.Config{P: 3, Epochs: 2, Seed: 6})
		defer eng.Shutdown()
		eng.Run(3)
		return prob.GatherCodes()
	}
	if !run().Equal(run()) {
		t.Fatal("ParMAC with fixed seed and no shuffle must be deterministic")
	}
}

func TestParMACSingleMachineDeterministicWithShuffle(t *testing.T) {
	run := func() *retrieval.Codes {
		prob, _ := buildProblem(100, 6, 4, 1, 7)
		eng := core.New(prob, core.Config{P: 1, Epochs: 2, Shuffle: true, Seed: 7})
		defer eng.Shutdown()
		eng.Run(2)
		return prob.GatherCodes()
	}
	if !run().Equal(run()) {
		t.Fatal("P=1 shuffled runs with one seed must be identical")
	}
}

func TestParMACQualityComparableToSerialMAC(t *testing.T) {
	// §8.2: "ParMAC gives almost identical results to MAC". Compare final
	// E_BA between serial MAC (exact W step) and ParMAC (stochastic W step)
	// on the same data.
	n, d, l := 400, 8, 6
	ds := dataset.GISTLike(n, d, 6, 8)

	_, _, serialStats := RunMAC(ds, MACConfig{
		L: l, Mu0: 1e-3, MuFactor: 2, Iters: 8, SVMEpochs: 3, Seed: 8,
	})
	serialEBA := serialStats[len(serialStats)-1].EBA

	shards := dataset.ShardIndices(n, 4, nil)
	prob := NewParMACProblem(ds, shards, ParMACConfig{
		L: l, Mu0: 1e-3, MuFactor: 2, SVMLambda: 1e-4, Seed: 8,
	})
	eng := core.New(prob, core.Config{P: 4, Epochs: 2, Seed: 8})
	defer eng.Shutdown()
	eng.Run(8)
	_, parmacEBA := prob.Stats()

	t.Logf("serial E_BA %.1f vs ParMAC E_BA %.1f", serialEBA, parmacEBA)
	if parmacEBA > 1.5*serialEBA+1 {
		t.Fatalf("ParMAC E_BA %v too far above serial %v", parmacEBA, serialEBA)
	}
}

func TestParMACMoreEpochsNotWorse(t *testing.T) {
	// §8.2: more epochs solve the W step more exactly; few epochs cause only
	// small degradation. Check e=4 is not dramatically worse than e=1 (both
	// should land close).
	finalEBA := func(epochs int) float64 {
		prob, _ := buildProblem(300, 8, 4, 4, 9)
		eng := core.New(prob, core.Config{P: 4, Epochs: epochs, Seed: 9})
		defer eng.Shutdown()
		eng.Run(6)
		_, eba := prob.Stats()
		return eba
	}
	e1, e4 := finalEBA(1), finalEBA(4)
	t.Logf("E_BA: e=1 %.1f, e=4 %.1f", e1, e4)
	if e4 > 1.5*e1+1 {
		t.Fatalf("more epochs should not hurt badly: e1=%v e4=%v", e1, e4)
	}
}

func TestParMACWithFaultInjection(t *testing.T) {
	prob, _ := buildProblem(200, 6, 4, 4, 10)
	// Machine 2 is killed by the transport at its sixth token forward of
	// iteration 1: nothing announces the death, as with a SIGKILL.
	fab, err := chaos.New(cluster.NewNetwork(5), chaos.Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewOn(prob, core.Config{P: 4, Epochs: 2, Replicas: true, Seed: 10}, fab)
	defer eng.Shutdown()
	res := eng.Run(1)
	fab.Arm(chaos.KillSpec{Rank: 2, Tag: chaos.AnyTag, AfterSends: 5})
	res = append(res, eng.Run(3)...)
	var died, recovered bool
	for _, ev := range res[1].Failures {
		died = died || (ev.Rank == 2 && ev.LostToken < 0)
		recovered = recovered || (ev.Rank == 2 && ev.LostToken >= 0 && ev.Recovered)
	}
	if len(res[0].Failures) != 0 || !died || !recovered {
		t.Fatalf("want machine 2 dead with a recovered submodel in iteration 1: %+v then %+v",
			res[0].Failures, res[1].Failures)
	}
	if res[3].AliveMachines != 3 {
		t.Fatalf("alive = %d", res[3].AliveMachines)
	}
	// Training must still produce a usable model.
	m := prob.AssembleModel()
	if m == nil || len(m.Enc) != 4 {
		t.Fatal("model incomplete after failure")
	}
}

func TestParMACStreamingAddShard(t *testing.T) {
	ds := dataset.GISTLike(200, 6, 4, 11)
	shards := dataset.ShardIndices(150, 2, nil) // first 150 points on 2 machines
	prob := NewParMACProblem(ds, shards, ParMACConfig{L: 4, Mu0: 1e-3, Seed: 11})
	eng := core.New(prob, core.Config{P: 2, Epochs: 1, Seed: 11, MaxMachines: 3})
	defer eng.Shutdown()
	eng.Run(2)

	// Stream in the remaining 50 points on a new machine.
	extra := make([]int, 50)
	for i := range extra {
		extra[i] = 150 + i
	}
	shardIdx := prob.AddShard(NewShardPoints(ds, extra))
	eng.AddMachine(shardIdx)
	res := eng.Iterate()
	if res.AliveMachines != 3 {
		t.Fatalf("alive = %d", res.AliveMachines)
	}
	if prob.GatherCodes().N != 200 {
		t.Fatalf("codes = %d, want 200", prob.GatherCodes().N)
	}
}

func TestGatherCodesOrdering(t *testing.T) {
	ds := dataset.GISTLike(30, 5, 2, 12)
	shards := dataset.ShardIndices(30, 3, nil)
	initZ := retrieval.NewCodes(30, 4)
	for i := 0; i < 30; i++ {
		initZ.SetBit(i, i%4, true)
	}
	prob := NewParMACProblem(ds, shards, ParMACConfig{L: 4, InitZ: initZ, Seed: 12})
	got := prob.GatherCodes()
	// Contiguous shards preserve the original order.
	for i := 0; i < 30; i++ {
		for b := 0; b < 4; b++ {
			if got.Bit(i, b) != initZ.Bit(i, b) {
				t.Fatalf("code %d bit %d lost", i, b)
			}
		}
	}
}
