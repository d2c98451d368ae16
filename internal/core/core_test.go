package core

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

// ---------------------------------------------------------------------------
// toy problem: submodel i accumulates the sum of the values it sees; the Z
// step writes the global mean estimate into the shard coordinates. This makes
// visit coverage, determinism and model completeness directly observable.
// ---------------------------------------------------------------------------

type toyShard struct {
	id   int
	vals []float64
	z    []float64
}

func (s *toyShard) NumPoints() int { return len(s.vals) }

type toySub struct {
	id     int
	sum    float64
	count  int
	visits []int // shard ids in visit order
}

func (t *toySub) ID() int { return t.id }

func (t *toySub) TrainOn(shard Shard, order []int) {
	ts := shard.(*toyShard)
	for _, i := range order {
		t.sum += ts.vals[i]
		t.count++
	}
	t.visits = append(t.visits, ts.id)
}

func (t *toySub) Clone() Submodel {
	c := *t
	c.visits = append([]int(nil), t.visits...)
	return &c
}

func (t *toySub) Bytes() int { return 16 }

type toyProblem struct {
	shards []*toyShard
	subs   []*toySub
	iters  []int // OnIterationStart log
}

func newToyProblem(nShards, pointsPerShard, m int) *toyProblem {
	p := &toyProblem{}
	v := 0.0
	for s := 0; s < nShards; s++ {
		sh := &toyShard{id: s, z: make([]float64, pointsPerShard)}
		for i := 0; i < pointsPerShard; i++ {
			sh.vals = append(sh.vals, v)
			v++
		}
		p.shards = append(p.shards, sh)
	}
	for i := 0; i < m; i++ {
		p.subs = append(p.subs, &toySub{id: i})
	}
	return p
}

func (p *toyProblem) Submodels() []Submodel {
	out := make([]Submodel, len(p.subs))
	for i, s := range p.subs {
		out[i] = s
	}
	return out
}

func (p *toyProblem) NumShards() int { return len(p.shards) }

func (p *toyProblem) OnModelSync(model []Submodel) {
	for i, sm := range model {
		p.subs[i] = sm.(*toySub)
	}
}
func (p *toyProblem) Shard(i int) Shard      { return p.shards[i] }
func (p *toyProblem) OnIterationStart(i int) { p.iters = append(p.iters, i) }

func (p *toyProblem) ZStep(shard int, model []Submodel) int {
	var mean float64
	for _, sm := range model {
		if sm == nil {
			panic("toy: incomplete model at Z step")
		}
		t := sm.(*toySub)
		if t.count > 0 {
			mean += t.sum / float64(t.count)
		}
	}
	mean /= float64(len(model))
	sh := p.shards[shard]
	changed := 0
	for i := range sh.z {
		if sh.z[i] != mean {
			sh.z[i] = mean
			changed++
		}
	}
	return changed
}

func (p *toyProblem) totalSum() float64 {
	var s float64
	for _, sh := range p.shards {
		for _, v := range sh.vals {
			s += v
		}
	}
	return s
}

// ---------------------------------------------------------------------------

func TestSingleMachineExactCounts(t *testing.T) {
	p := newToyProblem(1, 10, 4)
	e := New(p, Config{P: 1, Epochs: 2, Seed: 1})
	defer e.Shutdown()
	res := e.Iterate()
	for _, sub := range p.subs {
		if sub.count != 2*10 {
			t.Fatalf("submodel %d saw %d points, want 20", sub.id, sub.count)
		}
		if sub.sum != 2*p.totalSum() {
			t.Fatalf("submodel %d sum %v, want %v", sub.id, sub.sum, 2*p.totalSum())
		}
	}
	if res.ZChanged != 10 {
		t.Fatalf("ZChanged = %d, want 10", res.ZChanged)
	}
	if res.FixMessages != 0 {
		t.Fatalf("unexpected fix messages: %d", res.FixMessages)
	}
}

func TestEverySubmodelVisitsEveryMachinePerEpoch(t *testing.T) {
	const P, E, M = 4, 3, 6
	p := newToyProblem(P, 5, M)
	e := New(p, Config{P: P, Epochs: E, Seed: 2})
	defer e.Shutdown()
	e.Iterate()
	for _, sub := range p.subs {
		if len(sub.visits) != E*P {
			t.Fatalf("submodel %d has %d training visits, want %d", sub.id, len(sub.visits), E*P)
		}
		for ep := 0; ep < E; ep++ {
			seen := map[int]bool{}
			for _, shard := range sub.visits[ep*P : (ep+1)*P] {
				if seen[shard] {
					t.Fatalf("submodel %d visited shard %d twice in epoch %d", sub.id, shard, ep)
				}
				seen[shard] = true
			}
		}
		// Totals: every point seen exactly E times.
		if sub.count != E*P*5 {
			t.Fatalf("submodel %d count %d", sub.id, sub.count)
		}
		if sub.sum != float64(E)*p.totalSum() {
			t.Fatalf("submodel %d sum %v want %v", sub.id, sub.sum, float64(E)*p.totalSum())
		}
	}
}

func TestShuffledRingStillCoversAllMachines(t *testing.T) {
	const P, E, M = 5, 2, 7
	p := newToyProblem(P, 3, M)
	e := New(p, Config{P: P, Epochs: E, Shuffle: true, Seed: 3})
	defer e.Shutdown()
	e.Iterate()
	for _, sub := range p.subs {
		for ep := 0; ep < E; ep++ {
			seen := map[int]bool{}
			for _, shard := range sub.visits[ep*P : (ep+1)*P] {
				seen[shard] = true
			}
			if len(seen) != P {
				t.Fatalf("submodel %d epoch %d covered %d machines, want %d", sub.id, ep, len(seen), P)
			}
		}
	}
}

func TestWithinMachinePasses(t *testing.T) {
	// §4.2: e within-machine passes with a single circulation epoch.
	p := newToyProblem(3, 4, 2)
	e := New(p, Config{P: 3, Epochs: 1, Within: 4, Seed: 4})
	defer e.Shutdown()
	e.Iterate()
	for _, sub := range p.subs {
		if sub.count != 4*3*4 {
			t.Fatalf("submodel %d count %d, want 48", sub.id, sub.count)
		}
	}
}

func TestCommunicationAccounting(t *testing.T) {
	const P, E, M = 4, 2, 6
	p := newToyProblem(P, 2, M)
	e := New(p, Config{P: P, Epochs: E, Seed: 5})
	defer e.Shutdown()
	res := e.Iterate()
	// Each token has (E+1)P−1 itinerary positions; the first is free
	// placement, so it is forwarded (E+1)P−2 times.
	wantHops := int64(M * ((E+1)*P - 2))
	if res.ModelMessages != wantHops {
		t.Fatalf("ModelMessages = %d, want %d", res.ModelMessages, wantHops)
	}
	if res.ModelBytes != wantHops*16 {
		t.Fatalf("ModelBytes = %d, want %d", res.ModelBytes, wantHops*16)
	}
}

func TestDeterministicAcrossRunsNoShuffle(t *testing.T) {
	run := func() []float64 {
		p := newToyProblem(3, 7, 5)
		e := New(p, Config{P: 3, Epochs: 2, Seed: 7})
		defer e.Shutdown()
		e.Run(3)
		out := make([]float64, 0, 5)
		for _, s := range p.subs {
			out = append(out, s.sum)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run results differ at submodel %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestIterationHookCalledInOrder(t *testing.T) {
	p := newToyProblem(2, 3, 2)
	e := New(p, Config{P: 2, Epochs: 1, Seed: 8})
	defer e.Shutdown()
	e.Run(3)
	if len(p.iters) != 3 || p.iters[0] != 0 || p.iters[2] != 2 {
		t.Fatalf("hook calls = %v", p.iters)
	}
}

func TestZStepRunsOnAllShards(t *testing.T) {
	p := newToyProblem(4, 6, 3)
	e := New(p, Config{P: 4, Epochs: 1, Seed: 9})
	defer e.Shutdown()
	res := e.Iterate()
	if res.ZChanged != 4*6 {
		t.Fatalf("ZChanged = %d, want 24", res.ZChanged)
	}
	want := p.shards[0].z[0]
	for _, sh := range p.shards {
		for _, z := range sh.z {
			if z != want {
				t.Fatal("Z values inconsistent across shards; machines saw different models")
			}
		}
	}
}

func TestReplicasKeepIndependentCopies(t *testing.T) {
	p := newToyProblem(2, 3, 2)
	e := New(p, Config{P: 2, Epochs: 1, Replicas: true, Seed: 10})
	defer e.Shutdown()
	res := e.Iterate()
	if res.FixMessages != 0 {
		// With replicas, copies recorded before the last training visit are
		// stale and must be repaired before the Z step.
		t.Logf("fix messages: %d (stale replicas repaired)", res.FixMessages)
	}
	// Z step must still be consistent.
	if p.shards[0].z[0] != p.shards[1].z[0] {
		t.Fatal("Z inconsistent with replicas")
	}
}

func TestRoutesStructure(t *testing.T) {
	p := newToyProblem(4, 2, 5)
	e := New(p, Config{P: 4, Epochs: 2, Seed: 11})
	defer e.Shutdown()
	routes := e.buildRoutes([]int{0, 1, 2, 3}, 8)
	for id, r := range routes {
		if len(r) != (2+1)*4-1 {
			t.Fatalf("route %d length %d", id, len(r))
		}
		if r[0] != id%4 {
			t.Fatalf("route %d home %d, want %d", id, r[0], id%4)
		}
		// Each epoch of 4 visits covers all machines.
		for ep := 0; ep < 2; ep++ {
			seen := map[int]bool{}
			for _, m := range r[ep*4 : (ep+1)*4] {
				seen[m] = true
			}
			if len(seen) != 4 {
				t.Fatalf("route %d epoch %d covers %d machines", id, ep, len(seen))
			}
		}
		// Final round: the P−1 tail hops plus the last training machine
		// cover everyone (each machine ends with a copy).
		seen := map[int]bool{r[7]: true}
		for _, m := range r[8:] {
			seen[m] = true
		}
		if len(seen) != 4 {
			t.Fatalf("route %d final round covers %d machines", id, len(seen))
		}
	}
}

func TestStreamingAddAndRetire(t *testing.T) {
	p := newToyProblem(3, 4, 4) // 3 shards available, start with 2 machines
	e := New(p, Config{P: 2, Epochs: 1, Seed: 13, MaxMachines: 3})
	defer e.Shutdown()
	r1 := e.Iterate()
	if r1.AliveMachines != 2 {
		t.Fatalf("alive = %d", r1.AliveMachines)
	}
	countAfter1 := p.subs[0].count // 2 shards × 4 points

	rank := e.AddMachine(2)
	if rank != 2 {
		t.Fatalf("new machine rank = %d", rank)
	}
	r2 := e.Iterate()
	if r2.AliveMachines != 3 {
		t.Fatalf("alive after add = %d", r2.AliveMachines)
	}
	if got := p.subs[0].count - countAfter1; got != 3*4 {
		t.Fatalf("iteration after add saw %d points, want 12", got)
	}

	e.Retire(0)
	r3 := e.Iterate()
	if r3.AliveMachines != 2 {
		t.Fatalf("alive after retire = %d", r3.AliveMachines)
	}
	if got := p.subs[0].count - countAfter1 - 12; got != 2*4 {
		t.Fatalf("iteration after retire saw %d points, want 8", got)
	}
}

func TestLoadBalancedShards(t *testing.T) {
	// Machines with unequal shards: work proportional to shard size (§4.3).
	p := &toyProblem{}
	sizes := []int{2, 6}
	v := 0.0
	for s, n := range sizes {
		sh := &toyShard{id: s, z: make([]float64, n)}
		for i := 0; i < n; i++ {
			sh.vals = append(sh.vals, v)
			v++
		}
		p.shards = append(p.shards, sh)
	}
	p.subs = []*toySub{{id: 0}}
	e := New(p, Config{P: 2, Epochs: 1, Seed: 14})
	defer e.Shutdown()
	e.Iterate()
	if p.subs[0].count != 8 {
		t.Fatalf("count = %d, want 8", p.subs[0].count)
	}
}

func TestConfigValidation(t *testing.T) {
	p := newToyProblem(2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: fabric without a rank for the coordinator")
		}
	}()
	NewOn(p, Config{P: 2}, cluster.NewNetwork(2))
}

func TestTooFewShardsPanics(t *testing.T) {
	p := newToyProblem(1, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: more machines than shards")
		}
	}()
	New(p, Config{P: 3})
}

func TestAddMachineRejectsBadShard(t *testing.T) {
	p := newToyProblem(2, 3, 2)
	e := New(p, Config{P: 2, MaxMachines: 3, Seed: 22})
	defer e.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range shard")
		}
	}()
	e.AddMachine(99)
}

func TestAddMachineExhaustsRanks(t *testing.T) {
	p := newToyProblem(3, 2, 2)
	e := New(p, Config{P: 2, MaxMachines: 2, Seed: 23})
	defer e.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when no ranks are free")
		}
	}()
	e.AddMachine(2)
}

func TestRetireTwicePanics(t *testing.T) {
	p := newToyProblem(3, 2, 2)
	e := New(p, Config{P: 3, Seed: 24})
	defer e.Shutdown()
	e.Retire(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double retire")
		}
	}()
	e.Retire(1)
}

func TestShutdownIsIdempotent(t *testing.T) {
	p := newToyProblem(2, 2, 2)
	e := New(p, Config{P: 2, Seed: 25})
	e.Iterate()
	e.Shutdown()
	e.Shutdown() // must not panic or deadlock
}

func TestManyIterationsStayConsistent(t *testing.T) {
	p := newToyProblem(4, 5, 6)
	e := New(p, Config{P: 4, Epochs: 2, Shuffle: true, Seed: 26})
	defer e.Shutdown()
	results := e.Run(10)
	for i, r := range results {
		if r.Iter != i {
			t.Fatalf("iteration numbering broken: %+v", r)
		}
		if r.AliveMachines != 4 {
			t.Fatalf("machines lost without failures: %+v", r)
		}
	}
	// 10 iterations × 2 epochs × 4 shards × 5 points each.
	for _, sub := range p.subs {
		if sub.count != 10*2*4*5 {
			t.Fatalf("submodel %d count %d", sub.id, sub.count)
		}
	}
}

func TestQuickProtocolInvariants(t *testing.T) {
	// Property: for random (P, M, e, shuffle, within), one iteration
	// satisfies the ParMAC protocol invariants: every submodel trains on
	// every shard exactly e·within times, the Z step touches every shard,
	// and no repair traffic is needed in failure-free runs.
	f := func(pRaw, mRaw, eRaw, wRaw uint8, shuffle bool, seed int64) bool {
		P := int(pRaw)%5 + 1
		M := int(mRaw)%9 + 1
		E := int(eRaw)%3 + 1
		W := int(wRaw)%2 + 1
		prob := newToyProblem(P, 3, M)
		e := New(prob, Config{P: P, Epochs: E, Within: W, Shuffle: shuffle, Seed: seed})
		defer e.Shutdown()
		res := e.Iterate()
		if res.FixMessages != 0 || len(res.Failures) != 0 {
			return false
		}
		if res.ZChanged != P*3 {
			return false
		}
		for _, sub := range prob.subs {
			if sub.count != E*W*P*3 {
				return false
			}
			// Visits: E·W per shard... W passes happen inside one visit, so
			// the visit log records E entries per shard.
			perShard := map[int]int{}
			for _, v := range sub.visits {
				perShard[v]++
			}
			if len(perShard) != P {
				return false
			}
			for _, c := range perShard {
				if c != E*W {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
