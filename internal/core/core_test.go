package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

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
	visits []int         // shard ids in visit order
	jitter time.Duration // TrainOn first sleeps a random time below it
}

func (t *toySub) ID() int { return t.id }

func (t *toySub) TrainOn(shard Shard, order []int) {
	if t.jitter > 0 {
		time.Sleep(time.Duration(rand.Int63n(int64(t.jitter))))
	}
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
	Adapter
	shards   []*toyShard
	iters    []int               // OnIterationStart log
	machines map[int]*toyProblem // by shard: the last Problem machine built for it
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
	subs := make([]Submodel, m)
	for i := range subs {
		subs[i] = &toySub{id: i}
	}
	p.Adapter = NewAdapter(subs, 1, 2)
	return p
}

// toys lists the problem's submodels (the engine's synced model).
func (p *toyProblem) toys() []*toySub {
	var out []*toySub
	for _, sm := range p.Submodels() {
		out = append(out, sm.(*toySub))
	}
	return out
}

// machine is the toy's per-machine factory: a Problem holding a copy of
// shard i only, kept on p so tests can read what the machine did.
func (p *toyProblem) machine(i int) Problem {
	sh := *p.shards[i]
	sh.z = slices.Clone(sh.z)
	m := &toyProblem{shards: make([]*toyShard, len(p.shards))}
	m.shards[i] = &sh
	if p.machines == nil {
		p.machines = make(map[int]*toyProblem)
	}
	p.machines[i] = m
	return m
}

// machineZ is shard i's coordinates as its machine holds them.
func (p *toyProblem) machineZ(i int) []float64 { return p.machines[i].shards[i].z }

func (p *toyProblem) NumShards() int         { return len(p.shards) }
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
	e := New(p, Config{P: 1, Epochs: 2, Seed: 1}, p.machine)
	defer e.Shutdown()
	res := e.Iterate()
	for _, sub := range p.toys() {
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
	e := New(p, Config{P: P, Epochs: E, Seed: 2}, p.machine)
	defer e.Shutdown()
	e.Iterate()
	for _, sub := range p.toys() {
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
	e := New(p, Config{P: P, Epochs: E, Shuffle: true, Seed: 3}, p.machine)
	defer e.Shutdown()
	e.Iterate()
	for _, sub := range p.toys() {
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

func TestCommunicationAccounting(t *testing.T) {
	const P, E, M = 4, 2, 6
	p := newToyProblem(P, 2, M)
	e := New(p, Config{P: P, Epochs: E, Seed: 5}, p.machine)
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
		e := New(p, Config{P: 3, Epochs: 2, Seed: 7}, p.machine)
		defer e.Shutdown()
		e.Run(3)
		out := make([]float64, 0, 5)
		for _, s := range p.toys() {
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
	e := New(p, Config{P: 2, Epochs: 1, Seed: 8}, p.machine)
	defer e.Shutdown()
	e.Run(3)
	if len(p.iters) != 3 || p.iters[0] != 0 || p.iters[2] != 2 {
		t.Fatalf("hook calls = %v", p.iters)
	}
}

func TestZStepRunsOnAllShards(t *testing.T) {
	p := newToyProblem(4, 6, 3)
	e := New(p, Config{P: 4, Epochs: 1, Seed: 9}, p.machine)
	defer e.Shutdown()
	res := e.Iterate()
	if res.ZChanged != 4*6 {
		t.Fatalf("ZChanged = %d, want 24", res.ZChanged)
	}
	want := p.machineZ(0)[0]
	for i := range p.shards {
		for _, z := range p.machineZ(i) {
			if z != want {
				t.Fatal("Z values inconsistent across shards; machines saw different models")
			}
		}
	}
}

// TestMachinesOwnTheirProblems: an in-process machine runs on the Problem
// the engine's factory built for it, never on the coordinator's. Each
// machine's own IterationHook sees every iteration once, in order, and the
// Z step writes the machine's copy of its shard, leaving the coordinator's
// shards as they were built.
func TestMachinesOwnTheirProblems(t *testing.T) {
	const P, iters = 3, 4
	for _, shape := range []struct {
		name  string
		build func(p *toyProblem) *Engine
	}{
		{"New", func(p *toyProblem) *Engine { return New(p, Config{P: P, Epochs: 1, Seed: 27}, p.machine) }},
		{"NewOn", func(p *toyProblem) *Engine {
			return NewOn(p, Config{P: P, Epochs: 1, Seed: 27}, cluster.NewNetwork(P+2), p.machine)
		}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			p := newToyProblem(P, 4, 2)
			e := shape.build(p)
			defer e.Shutdown()
			e.Run(iters)
			want := []int{0, 1, 2, 3}
			if !slices.Equal(p.iters, want) {
				t.Errorf("coordinator hook calls = %v, want %v", p.iters, want)
			}
			for i, sh := range p.shards {
				m := p.machines[i]
				if m == nil || m == p {
					t.Fatalf("machine %d has no Problem of its own", i)
				}
				if !slices.Equal(m.iters, want) {
					t.Errorf("machine %d hook calls = %v, want %v", i, m.iters, want)
				}
				if m.shards[i] == sh || p.machineZ(i)[0] == 0 {
					t.Errorf("machine %d did not run its Z step on its own copy of shard %d", i, i)
				}
				for _, z := range sh.z {
					if z != 0 {
						t.Fatalf("coordinator's shard %d written by a machine: z = %v", i, sh.z)
					}
				}
			}
		})
	}
}

// TestIterateKeepsPreIterationModel: the tokens an iteration circulates are
// clones, so the model the coordinator held before it — the copy of record
// fault recovery falls back to — is untouched afterwards, and the new model
// is made of the returned tokens.
func TestIterateKeepsPreIterationModel(t *testing.T) {
	p := newToyProblem(2, 3, 2)
	e := New(p, Config{P: 2, Epochs: 1, Seed: 10}, p.machine)
	defer e.Shutdown()
	e.Iterate()
	before := slices.Clone(e.submodels)
	snap := make([]Submodel, len(before))
	for i, sm := range before {
		snap[i] = sm.Clone()
	}
	e.Iterate()
	for i, sm := range before {
		old, want := sm.(*toySub), snap[i].(*toySub)
		if old.sum != want.sum || old.count != want.count || !slices.Equal(old.visits, want.visits) {
			t.Errorf("submodel %d: pre-iteration copy trained in place: count %d → %d, visits %v → %v",
				i, want.count, old.count, want.visits, old.visits)
		}
		now := e.submodels[i]
		if now == sm {
			t.Errorf("submodel %d: the new model is the pre-iteration object", i)
		}
		if p.Submodels()[i] != now {
			t.Errorf("submodel %d: the problem does not hand out the engine's new model", i)
		}
		if got := now.(*toySub).count; got != want.count+2*3 {
			t.Errorf("submodel %d: count %d after the iteration, want %d", i, got, want.count+2*3)
		}
		if Submodel(p.toys()[i]) != now {
			t.Errorf("submodel %d: the problem's reference was not synced to the new model", i)
		}
	}
}

func TestRoutesStructure(t *testing.T) {
	p := newToyProblem(4, 2, 5)
	e := New(p, Config{P: 4, Epochs: 2, Seed: 11}, p.machine)
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
	p.Adapter = NewAdapter([]Submodel{&toySub{id: 0}}, 1, 2)
	e := New(p, Config{P: 2, Epochs: 1, Seed: 14}, p.machine)
	defer e.Shutdown()
	e.Iterate()
	if p.toys()[0].count != 8 {
		t.Fatalf("count = %d, want 8", p.toys()[0].count)
	}
}

// TestConfigValidation: every construction mistake panics, naming itself.
func TestConfigValidation(t *testing.T) {
	p := newToyProblem(2, 2, 1)
	cases := []struct {
		name, want string
		build      func()
	}{
		{"fabric without a rank for the coordinator", "at least 3 ranks", func() {
			NewOn(p, Config{P: 2}, cluster.NewNetwork(2), p.machine)
		}},
		{"distributed coordinator not on the last rank", "last rank 2, got rank 0", func() {
			NewDistributed(p, Config{P: 2}, cluster.NewNetwork(3).Comm(0))
		}},
		{"distributed fabric larger than P+1", "need a 3-rank fabric, got 4", func() {
			NewDistributed(p, Config{P: 2}, cluster.NewNetwork(4).Comm(3))
		}},
		{"AddMachine on a distributed engine", "launches its machines", func() {
			NewDistributed(p, Config{P: 1}, cluster.NewNetwork(2).Comm(1)).AddMachine(1)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.want) {
					t.Fatalf("recovered %v, want a panic containing %q", r, c.want)
				}
			}()
			c.build()
		})
	}
}

func TestTooFewShardsPanics(t *testing.T) {
	p := newToyProblem(1, 2, 1)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "out of range") {
			t.Fatalf("recovered %v, want a panic: more machines than shards", r)
		}
	}()
	New(p, Config{P: 3}, p.machine)
}

func TestAddMachineRejectsBadShard(t *testing.T) {
	p := newToyProblem(2, 3, 2)
	e := NewOn(p, Config{P: 2, Seed: 22}, cluster.NewNetwork(4), p.machine) // one spare rank
	defer e.Shutdown()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "shard 99 out of range") {
			t.Fatalf("recovered %v, want a panic for an out-of-range shard", r)
		}
	}()
	e.AddMachine(99)
}

func TestAddMachineExhaustsRanks(t *testing.T) {
	p := newToyProblem(3, 2, 2)
	e := New(p, Config{P: 2, Seed: 23}, p.machine) // New's fabric has no spare rank
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
	e := New(p, Config{P: 3, Seed: 24}, p.machine)
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
	e := New(p, Config{P: 2, Seed: 25}, p.machine)
	e.Iterate()
	e.Shutdown()
	e.Shutdown() // must not panic or deadlock
}

func TestManyIterationsStayConsistent(t *testing.T) {
	p := newToyProblem(4, 5, 6)
	e := New(p, Config{P: 4, Epochs: 2, Shuffle: true, Seed: 26}, p.machine)
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
	for _, sub := range p.toys() {
		if sub.count != 10*2*4*5 {
			t.Fatalf("submodel %d count %d", sub.id, sub.count)
		}
	}
}

func TestQuickProtocolInvariants(t *testing.T) {
	// Property: for random (P, M, e, shuffle), one iteration satisfies the
	// ParMAC protocol invariants: every submodel trains on every shard
	// exactly e times, the Z step touches every shard, and no repair traffic
	// is needed in failure-free runs.
	f := func(pRaw, mRaw, eRaw uint8, shuffle bool, seed int64) bool {
		P := int(pRaw)%5 + 1
		M := int(mRaw)%9 + 1
		E := int(eRaw)%3 + 1
		prob := newToyProblem(P, 3, M)
		e := New(prob, Config{P: P, Epochs: E, Shuffle: shuffle, Seed: seed}, prob.machine)
		defer e.Shutdown()
		res := e.Iterate()
		if res.FixMessages != 0 || len(res.Failures) != 0 {
			return false
		}
		if res.ZChanged != P*3 {
			return false
		}
		for _, sub := range prob.toys() {
			if sub.count != E*P*3 {
				return false
			}
			perShard := map[int]int{}
			for _, v := range sub.visits {
				perShard[v]++
			}
			if len(perShard) != P {
				return false
			}
			for _, c := range perShard {
				if c != E {
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
