package binauto

import (
	"strings"
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

// decoders lists the problem's decoder-group submodels in ID order.
func decoders(p *ParMACProblem) []*decoderSub {
	var out []*decoderSub
	for _, sm := range p.Submodels() {
		if d, ok := sm.(*decoderSub); ok {
			out = append(out, d)
		}
	}
	return out
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
	decs := decoders(prob)
	for _, dsub := range decs {
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
	minSz, maxSz := len(decs[0].dims), len(decs[0].dims)
	for _, dsub := range decs {
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
	dec := decoders(prob)[1]
	prob.Submodels()[2].(*encoderSub).svm.W[3] = 42
	dec.w.Set(2, 0, 7) // bit 2, first owned dim of group 1
	dim := dec.dims[0]
	dec.c[0] = -5
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

// TestIterationStartRearmsSyncedSubmodels: the η0 auto-tune (§8.1) runs on
// each submodel's first visit of every iteration. After an engine iteration
// the authoritative submodels are the returned tokens, which did tune, so
// OnIterationStart must re-arm those objects, not the ones the problem was
// built with.
func TestIterationStartRearmsSyncedSubmodels(t *testing.T) {
	prob, _ := buildProblem(120, 6, 4, 2, 4)
	eng := core.New(prob, core.Config{P: 2, Epochs: 1, Seed: 4})
	defer eng.Shutdown()
	built := prob.Submodels()
	eng.Iterate()
	synced := prob.Submodels()
	prob.OnIterationStart(1)
	for i, sm := range synced {
		if sm == built[i] {
			t.Fatalf("submodel %d: the problem still holds the object it was built with", i)
		}
		var tuned bool
		switch s := sm.(type) {
		case *encoderSub:
			tuned = s.tuned
		case *decoderSub:
			tuned = s.tuned
		}
		if tuned {
			t.Fatalf("submodel %d will not re-tune η0 on its first visit of iteration 1", i)
		}
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
	if !equalCodes(run(), run()) {
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
	if !equalCodes(run(), run()) {
		t.Fatal("P=1 shuffled runs with one seed must be identical")
	}
}

func TestParMACQualityComparableToSerialMAC(t *testing.T) {
	// §8.2 and Fig. 7 right: "ParMAC gives almost identical results to MAC",
	// and the learning curves for different P nearly coincide. MAC is ParMAC
	// on one machine; compare its final E_BA with P=4 on the same data and
	// seed.
	finalEBA := func(p int) float64 {
		prob, _ := buildProblem(400, 8, 6, p, 8)
		eng := core.New(prob, core.Config{P: p, Epochs: 2, Seed: 8})
		defer eng.Shutdown()
		eng.Run(8)
		_, eba := prob.Stats()
		return eba
	}
	serialEBA, parmacEBA := finalEBA(1), finalEBA(4)
	t.Logf("P=1 E_BA %.1f vs P=4 E_BA %.1f", serialEBA, parmacEBA)
	if parmacEBA > 1.5*serialEBA+1 {
		t.Fatalf("P=4 E_BA %v too far above P=1 %v", parmacEBA, serialEBA)
	}
}

// TestNewParMACProblemRejectsLongCodes: a code is one packed word, so L > 64
// must be refused when the problem is built, not by a Z-step worker after a
// whole W step has run.
func TestNewParMACProblemRejectsLongCodes(t *testing.T) {
	ds := dataset.GISTLike(20, 128, 2, 13)
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "64 bits") {
			t.Fatalf("L=65 with D=128: got panic %v, want the 64-bit limit", r)
		}
	}()
	NewParMACProblem(ds, dataset.ShardIndices(ds.N, 1, nil), ParMACConfig{L: 65})
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
	eng := core.NewOn(prob, core.Config{P: 4, Epochs: 2, Seed: 10}, fab)
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
}

func TestParMACStreamingAddShard(t *testing.T) {
	ds := dataset.GISTLike(200, 6, 4, 11)
	shards := dataset.ShardIndices(150, 2, nil) // first 150 points on 2 machines
	prob := NewParMACProblem(ds, shards, ParMACConfig{L: 4, Mu0: 1e-3, Seed: 11})
	net := cluster.NewNetwork(4) // 2 machines, a spare rank, the coordinator
	defer net.Close()
	eng := core.NewOn(prob, core.Config{P: 2, Epochs: 1, Seed: 11}, net)
	defer eng.Shutdown()
	eng.Run(2)

	// Stream in the remaining 50 points on a new machine.
	extra := make([]int, 50)
	for i := range extra {
		extra[i] = 150 + i
	}
	shardIdx := prob.AddShard(ds, extra)
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
