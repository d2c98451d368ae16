package core_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
	"repro/internal/cluster/tcp"
	"repro/internal/core"
)

// The distributed shape of the engine: each worker owns its Problem
// instance, and every token crosses the fabric — as a pointer on inproc, as
// bytes in the cluster wire codec over a real TCP socket. The runs below must
// match the in-process engine exactly on both fabrics — that is the
// transport-independence claim at the engine level rather than the fabric
// level.

// WireSub is a toy submodel with a wire codec: it accumulates the sum and
// count of every value it sees, so divergence anywhere (a lost visit, stale
// state after deserialization) shows up in the final model.
type WireSub struct {
	Id     int
	Sum    float64
	Count  int
	Visits []int
}

func (s *WireSub) ID() int { return s.Id }

func (s *WireSub) TrainOn(shard core.Shard, order []int) {
	sh := shard.(*wireShard)
	for _, i := range order {
		s.Sum += sh.vals[i]
		s.Count++
	}
	s.Visits = append(s.Visits, sh.id)
}

func (s *WireSub) Clone() core.Submodel {
	c := *s
	c.Visits = append([]int(nil), s.Visits...)
	return &c
}

func (s *WireSub) Bytes() int { return 16 }

// AppendWire appends Id, Sum, Count, Visits.
func (s *WireSub) AppendWire(b []byte) []byte {
	b = cluster.AppendInt(b, s.Id)
	b = cluster.AppendFloat64(b, s.Sum)
	b = cluster.AppendInt(b, s.Count)
	return cluster.AppendInts(b, s.Visits)
}

func init() {
	cluster.RegisterWire(1000, &WireSub{}, func(r *cluster.WireReader) any {
		return &WireSub{Id: r.Int(), Sum: r.Float64(), Count: r.Int(), Visits: r.Ints()}
	})
}

type wireShard struct {
	id   int
	vals []float64
	z    []float64
}

func (s *wireShard) NumPoints() int { return len(s.vals) }

type wireProblem struct {
	core.Adapter
	shards   []*wireShard
	mu       float64              // per-iteration state driven by OnIterationStart
	machines map[int]*wireProblem // by shard: the last Problem machine built for it
}

func newWireProblem(nShards, pointsPerShard, m int) *wireProblem {
	p := &wireProblem{}
	v := 0.0
	for s := 0; s < nShards; s++ {
		sh := &wireShard{id: s, z: make([]float64, pointsPerShard)}
		for i := 0; i < pointsPerShard; i++ {
			sh.vals = append(sh.vals, v)
			v++
		}
		p.shards = append(p.shards, sh)
	}
	subs := make([]core.Submodel, m)
	for i := range subs {
		subs[i] = &WireSub{Id: i}
	}
	p.Adapter = core.NewAdapter(subs, 1, 2)
	return p
}

// wires lists the problem's submodels (the engine's synced model).
func (p *wireProblem) wires() []*WireSub {
	var out []*WireSub
	for _, sm := range p.Submodels() {
		out = append(out, sm.(*WireSub))
	}
	return out
}

// machine is the per-machine factory of an in-process engine: a Problem
// holding a copy of shard i only, kept on p so tests can read its Z state.
func (p *wireProblem) machine(i int) core.Problem {
	sh := *p.shards[i]
	sh.z = slices.Clone(sh.z)
	m := &wireProblem{shards: make([]*wireShard, len(p.shards))}
	m.shards[i] = &sh
	if p.machines == nil {
		p.machines = make(map[int]*wireProblem)
	}
	p.machines[i] = m
	return m
}

func (p *wireProblem) NumShards() int         { return len(p.shards) }
func (p *wireProblem) Shard(i int) core.Shard { return p.shards[i] }
func (p *wireProblem) OnIterationStart(i int) { p.mu = float64(i + 1) }

func (p *wireProblem) ZStep(shard int, model []core.Submodel) int {
	var mean float64
	for _, sm := range model {
		t := sm.(*WireSub)
		if t.Count > 0 {
			mean += t.Sum / float64(t.Count)
		}
	}
	mean = mean/float64(len(model)) + p.mu // μ dependence checks the worker-side hook
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

// fabrics are the transports every distributed drill runs on.
var fabrics = []string{"inproc", "tcp"}

// runDistributed executes iters engine iterations over the named fabric:
// one coordinator, P workers, each with a private wireProblem. It returns
// the coordinator-side problem (synced model) and the per-worker problems
// (shard-local Z state), plus the iteration results. Any kills are scheduled
// by a chaos wrapper around the fabric: the victim's link drops without a
// goodbye, which is all the coordinator sees of a SIGKILL.
func runDistributed(t *testing.T, fabric string, cfg core.Config, iters, shards, points, m int, kills ...chaos.KillSpec) (*wireProblem, []*wireProblem, []core.IterationResult) {
	t.Helper()
	fab, err := cluster.NewFabric(fabric, cfg.P+1)
	if err != nil {
		t.Fatalf("%s fabric: %v", fabric, err)
	}
	if len(kills) > 0 {
		cf, err := chaos.New(fab)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kills {
			cf.Arm(k)
		}
		fab = cf
	}
	defer fab.Close()

	workerProbs := make([]*wireProblem, cfg.P)
	var wg sync.WaitGroup
	for r := 0; r < cfg.P; r++ {
		workerProbs[r] = newWireProblem(shards, points, m)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			core.RunWorker(fab.Comm(r), workerProbs[r], r, core.WorkerOptions{
				Seed: core.WorkerSeed(cfg.Seed, r),
			})
		}(r)
	}

	coordProb := newWireProblem(shards, points, m)
	eng := core.NewDistributed(coordProb, cfg, fab.Comm(cfg.P))
	eng.SetStatsSource(fab.Stats)
	results := eng.Run(iters)
	eng.Shutdown()
	wg.Wait() // workers must drain their shutdown before the fabric dies
	return coordProb, workerProbs, results
}

func TestDistributedMatchesInProcess(t *testing.T) {
	const P, M, shards, points, iters = 3, 5, 3, 4, 3
	cfg := core.Config{P: P, Epochs: 2, Seed: 42}

	inproc := newWireProblem(shards, points, M)
	eng := core.New(inproc, cfg, inproc.machine)
	inprocRes := eng.Run(iters)
	eng.Shutdown()

	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			coordProb, workerProbs, distRes := runDistributed(t, fabric, cfg, iters, shards, points, M)

			inprocSubs := inproc.wires()
			for i, sub := range coordProb.wires() {
				want := inprocSubs[i]
				if sub.Sum != want.Sum || sub.Count != want.Count {
					t.Fatalf("submodel %d diverged: distributed(sum=%v,count=%d) in-process(sum=%v,count=%d)",
						i, sub.Sum, sub.Count, want.Sum, want.Count)
				}
			}
			for i := range inprocRes {
				a, b := inprocRes[i], distRes[i]
				if a.ZChanged != b.ZChanged || a.ModelMessages != b.ModelMessages || a.ModelBytes != b.ModelBytes {
					t.Fatalf("iteration %d results diverged: in-process %+v vs distributed %+v", i, a, b)
				}
			}
			// Every worker's shard-local Z state must match the in-process
			// machines': the Z step saw the same complete model and the same μ.
			survivorZ := make([]float64, P)
			for r, wp := range workerProbs {
				survivorZ[r] = wp.shards[r].z[0]
				if got, want := survivorZ[r], inproc.machines[r].shards[r].z[0]; got != want {
					t.Fatalf("worker %d Z state %v, in-process %v", r, got, want)
				}
			}
			all := core.RingIter{Alive: []int{0, 1, 2}}
			core.CheckVisitLogs(t, core.Drill{
				Epochs: 2, Points: points, Results: distRes, Subs: wireLogs(coordProb),
				SurvivorZ: survivorZ, Iters: []core.RingIter{all, all, all},
			})
		})
	}
}

// wireLogs is the visit history of the coordinator's synced model.
func wireLogs(p *wireProblem) []core.SubLog {
	var out []core.SubLog
	for _, s := range p.wires() {
		out = append(out, core.SubLog{Visits: s.Visits, Sum: s.Sum, Count: s.Count})
	}
	return out
}

// Guard against the registered tcp fabric being silently absent (an import
// regression would turn the tests above into inproc-only coverage).
var _ = tcp.NewLoopbackFabric
