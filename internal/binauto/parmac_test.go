package binauto

import (
	"math"
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

// fleet is a coordinator Problem and the Problems of the machines an engine
// launched for it, by shard: the trained codes live on the machines.
type fleet struct {
	prob     *ParMACProblem
	machines map[int]*ParMACProblem
}

func newFleet(p *ParMACProblem) *fleet {
	return &fleet{prob: p, machines: make(map[int]*ParMACProblem)}
}

// machine is the engine's per-machine factory: prob.Machine, recorded.
func (f *fleet) machine(i int) core.Problem {
	m := f.prob.Machine(i).(*ParMACProblem)
	f.machines[i] = m
	return m
}

// shards lists every shard as its machine holds it, in shard order.
func (f *fleet) shards() []*Shard {
	out := make([]*Shard, len(f.prob.shards))
	for i := range out {
		out[i] = f.machines[i].shards[i]
	}
	return out
}

// objectives evaluates E_Q (at the coordinator's μ) and E_BA directly with
// the coordinator's assembled model over the machines' given shards, all of
// them when none are given: the oracle for the curve the Z steps report in
// IterationResult.
func objectives(f *fleet, shards ...int) (eq, eba float64) {
	if len(shards) == 0 {
		for i := range f.prob.shards {
			shards = append(shards, i)
		}
	}
	m := f.prob.AssembleModel()
	for _, i := range shards {
		sh := f.machines[i].shards[i]
		eq += modelEQ(m, sh, sh.Z, f.prob.Mu())
		eba += m.EBA(sh)
	}
	return eq, eba
}

// within reports |got − want| <= 1e-9·(1+|want|), the bound for sums taken
// by the Gram identities against direct evaluation.
func within(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
}

// gatherCodes concatenates the shards' codes into one set, shard by shard.
func gatherCodes(shards []*Shard) *retrieval.Codes {
	total := 0
	for _, sh := range shards {
		total += sh.Z.N
	}
	out := retrieval.NewCodes(total, shards[0].Z.L)
	at := 0
	for _, sh := range shards {
		for i := 0; i < sh.Z.N; i++ {
			out.CopyCode(at, sh.Z, i)
			at++
		}
	}
	return out
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
	eng := core.New(prob, core.Config{P: 2, Epochs: 1, Seed: 4}, prob.Machine)
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
	f := newFleet(prob)
	eng := core.New(prob, core.Config{P: 4, Epochs: 1, Seed: 5}, f.machine)
	defer eng.Shutdown()

	prob.OnIterationStart(0)
	eq0, eba0 := objectives(f)
	eng.Run(6)
	_, eba1 := objectives(f)
	if eba1 > eba0 {
		t.Fatalf("ParMAC did not reduce E_BA: %v -> %v", eba0, eba1)
	}
	_ = eq0
}

// TestIterationCurveMatchesOracle: the learning curve the machines' Z steps
// report (IterationResult.EQ, EBA) agrees with direct evaluation of the
// assembled model over the shards to 1e-9·(1+|E|), for both Z methods, one
// and three machines, and is bit-identical for Z-step parallelism 1 and 4.
// In the kill row machine 2 dies in iteration 1's W step; from then on the
// curve sums only the survivors' shards. Which replica restores a lost
// submodel may depend on the schedule, so that row checks the oracle only.
func TestIterationCurveMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		method ZMethod
		p      int
		kill   bool
	}{
		{"enumerate/P=1", ZEnumerate, 1, false},
		{"enumerate/P=3", ZEnumerate, 3, false},
		{"alternate/P=1", ZAlternate, 1, false},
		{"alternate/P=3", ZAlternate, 3, false},
		{"alternate/P=4/kill", ZAlternate, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var curves [2][]core.IterationResult
			for run, parallel := range []int{1, 4} {
				ds := dataset.GISTLike(400, 8, 4, 21)
				prob := NewParMACProblem(ds, dataset.ShuffledShardIndices(ds.N, tc.p, nil, 21), ParMACConfig{
					L: 6, Mu0: 1e-3, SVMLambda: 1e-4, ZMethod: tc.method, Parallel: parallel, Seed: 21,
				})
				fab, err := chaos.New(cluster.NewNetwork(tc.p + 1))
				if err != nil {
					t.Fatal(err)
				}
				f := newFleet(prob)
				eng := core.NewOn(prob, core.Config{P: tc.p, Epochs: 2, Seed: 21}, fab, f.machine)
				scored := []int{0, 1, 2, 3}[:tc.p]
				for it := 0; it < 4; it++ {
					if tc.kill && it == 1 {
						fab.Arm(chaos.KillSpec{Rank: 2, Tag: chaos.AnyTag, AfterSends: 5})
						scored = []int{0, 1, 3}
					}
					res := eng.Iterate()
					eq, eba := objectives(f, scored...)
					if !within(res.EQ, eq) || !within(res.EBA, eba) {
						t.Fatalf("parallel=%d iter %d: curve E_Q %v, E_BA %v; oracle over shards %v: %v, %v",
							parallel, it, res.EQ, res.EBA, scored, eq, eba)
					}
					curves[run] = append(curves[run], res)
				}
				eng.Shutdown()
				fab.Close()
				if tc.kill && curves[run][3].AliveMachines != 3 {
					t.Fatalf("parallel=%d: %d machines alive after the kill, want 3", parallel, curves[run][3].AliveMachines)
				}
			}
			for it := range curves[0] {
				a, b := curves[0][it], curves[1][it]
				if !tc.kill && (a.EQ != b.EQ || a.EBA != b.EBA) {
					t.Fatalf("iter %d: parallel=1 curve (%v, %v) differs from parallel=4 (%v, %v)",
						it, a.EQ, a.EBA, b.EQ, b.EBA)
				}
			}
		})
	}
}

func TestParMACDeterministicNoShuffle(t *testing.T) {
	run := func() *retrieval.Codes {
		prob, _ := buildProblem(150, 6, 4, 3, 6)
		f := newFleet(prob)
		eng := core.New(prob, core.Config{P: 3, Epochs: 2, Seed: 6}, f.machine)
		defer eng.Shutdown()
		eng.Run(3)
		return gatherCodes(f.shards())
	}
	if !equalCodes(run(), run()) {
		t.Fatal("ParMAC with fixed seed and no shuffle must be deterministic")
	}
}

func TestParMACSingleMachineDeterministicWithShuffle(t *testing.T) {
	run := func() *retrieval.Codes {
		prob, _ := buildProblem(100, 6, 4, 1, 7)
		f := newFleet(prob)
		eng := core.New(prob, core.Config{P: 1, Epochs: 2, Shuffle: true, Seed: 7}, f.machine)
		defer eng.Shutdown()
		eng.Run(2)
		return gatherCodes(f.shards())
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
		f := newFleet(prob)
		eng := core.New(prob, core.Config{P: p, Epochs: 2, Seed: 8}, f.machine)
		defer eng.Shutdown()
		eng.Run(8)
		_, eba := objectives(f)
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
		f := newFleet(prob)
		eng := core.New(prob, core.Config{P: 4, Epochs: epochs, Seed: 9}, f.machine)
		defer eng.Shutdown()
		eng.Run(6)
		_, eba := objectives(f)
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
	fab, err := chaos.New(cluster.NewNetwork(5))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewOn(prob, core.Config{P: 4, Epochs: 2, Seed: 10}, fab, prob.Machine)
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
	f := newFleet(prob)
	eng := core.NewOn(prob, core.Config{P: 2, Epochs: 1, Seed: 11}, net, f.machine)
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
	if n := gatherCodes(f.shards()).N; n != 200 {
		t.Fatalf("codes = %d, want 200", n)
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
	got := gatherCodes(prob.shards)
	// Contiguous shards preserve the original order.
	for i := 0; i < 30; i++ {
		for b := 0; b < 4; b++ {
			if got.Bit(i, b) != initZ.Bit(i, b) {
				t.Fatalf("code %d bit %d lost", i, b)
			}
		}
	}
}
