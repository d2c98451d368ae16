package speedup

import (
	"container/heap"
	"math/rand"

	"repro/internal/dataset"
)

// Cluster is what the simulation needs beyond Params: the machines, their
// runtime variation, and the node topology.
type Cluster struct {
	P int // machines

	// Noise is the coefficient of variation of a multiplicative jitter on
	// every service time (0 = deterministic). Models the runtime variation
	// the paper attributes to ventilation, co-tenant processes, etc. (§4.3).
	Noise float64
	Seed  int64

	// ProcsPerNode > 0 places machines on nodes of that size; hops between
	// machines in the same node cost IntraTWc instead of TWc (§8.5). 0
	// means TWc is used everywhere.
	ProcsPerNode int
	IntraTWc     float64
}

// SimResult reports the virtual-time outcome of one simulated iteration.
type SimResult struct {
	TW float64 // W-step makespan
	TZ float64 // Z-step makespan
	T  float64 // TW + TZ

	CommTime float64 // total machine time spent receiving/sending
	CompTime float64 // total machine time spent training + Z step
	IdleTime float64 // total machine idle time during the W step

	Hops int // submodel transfers
}

// event is a token arrival at a machine.
type event struct {
	time    float64
	machine int
	tok     *simToken
}

// simToken is one circulating submodel: it starts at machine home and its
// step-th visit is to machine (home+step) mod P, as in the engine's ring.
type simToken struct {
	id, home, step int
}

type eventQueue []event

func (q eventQueue) Len() int      { return len(q) }
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	// Deterministic tie-breaking.
	if q[i].machine != q[j].machine {
		return q[i].machine < q[j].machine
	}
	return q[i].tok.id < q[j].tok.id
}
func (q *eventQueue) Push(x any) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Simulate runs one ParMAC iteration (W step + Z step) on cluster c in
// virtual time. It executes the asynchronous W-step queue discipline the
// engine uses: each machine is a FIFO server that receives a submodel,
// trains it on the local shard, and sends it to its ring successor, for e
// epochs of P visits; a final round of P−1 copy hops follows. The Z step is
// perfectly parallel.
func (p Params) Simulate(c Cluster) SimResult {
	if c.P <= 0 || p.M <= 0 || p.N <= 0 || p.E <= 0 {
		panic("speedup: P, M, N and E must be positive")
	}
	rng := rand.New(rand.NewSource(c.Seed))
	shardSizes := dataset.ShardSizes(p.N, c.P, nil)
	jitter := func() float64 {
		if c.Noise <= 0 {
			return 1
		}
		j := 1 + rng.NormFloat64()*c.Noise
		if j < 0.05 {
			j = 0.05
		}
		return j
	}

	// Event-driven W step. Serving one token costs the receive/send overhead
	// plus, on training visits, a pass over the local shard. Communication
	// does not overlap computation (§5.1).
	visits, train := (p.E+1)*c.P-1, p.E*c.P
	var q eventQueue
	for id := 0; id < p.M; id++ {
		heap.Push(&q, event{time: 0, machine: id % c.P, tok: &simToken{id: id, home: id % c.P}})
	}
	nextFree := make([]float64, c.P)
	var res SimResult
	for q.Len() > 0 {
		ev := heap.Pop(&q).(event)
		m := ev.machine
		start := ev.time
		if nextFree[m] > start {
			start = nextFree[m]
		} else {
			res.IdleTime += start - nextFree[m]
		}
		service := 0.0
		if ev.tok.step > 0 { // the initial placement is free
			cost := p.hopCost(c, (ev.tok.home+ev.tok.step-1)%c.P, m) * jitter()
			service += cost
			res.CommTime += cost
		}
		if ev.tok.step < train {
			cost := p.TWr * float64(shardSizes[m]) * jitter()
			service += cost
			res.CompTime += cost
		}
		done := start + service
		nextFree[m] = done
		ev.tok.step++
		if ev.tok.step < visits {
			res.Hops++
			heap.Push(&q, event{time: done, machine: (ev.tok.home + ev.tok.step) % c.P, tok: ev.tok})
		}
	}
	for _, t := range nextFree {
		if t > res.TW {
			res.TW = t
		}
	}

	// Z step: the makespan of the slowest machine (eq. 7).
	for m := 0; m < c.P; m++ {
		cost := float64(p.M) * float64(shardSizes[m]) * p.TZr * jitter()
		res.CompTime += cost
		if cost > res.TZ {
			res.TZ = cost
		}
	}
	res.T = res.TW + res.TZ
	return res
}

// hopCost is the communication cost of moving one submodel from machine a to
// machine b, honouring the node topology of §8.5.
func (p Params) hopCost(c Cluster, a, b int) float64 {
	if a == b {
		return 0 // staying put costs nothing (single-machine ring)
	}
	if c.ProcsPerNode > 0 && c.IntraTWc > 0 && a/c.ProcsPerNode == b/c.ProcsPerNode {
		return c.IntraTWc
	}
	return p.TWc
}
