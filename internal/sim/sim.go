// Package sim is a discrete-event simulator of the ParMAC schedule under the
// cost model of §5.1. It replaces the paper's physical clusters (Table 1):
// the repository benchmark (bench/README.md) measures wall-clock S(P) only up
// to the host's CPUs, so the simulator extrapolates beyond them — it executes
// the actual asynchronous W-step queue discipline (each machine: receive a
// submodel, train it on the local shard, send it to the successor) and the
// embarrassingly parallel Z step in virtual time, parameterised by the same
// constants the paper's model uses:
//
//	t_r^W  computation time per submodel and data point in the W step
//	t_c^W  communication time per submodel hop
//	t_r^Z  computation time per data point and submodel in the Z step
//
// plus per-machine speed factors α_p (load balancing, §4.3), optional noise
// (machines "do vary for various reasons", §4.3), and a node topology with
// distinct intra-node and inter-node communication costs (§8.5 / Fig. 13).
//
// The simulated speedups are the "experimental" curves of Fig. 10; the
// closed-form model of internal/speedup gives its "theory" curves.
package sim

import (
	"container/heap"
	"math/rand"

	"repro/internal/dataset"
)

// Config describes one simulated ParMAC deployment and workload.
type Config struct {
	P      int // machines
	N      int // total training points
	M      int // circulating (effective equal-size) submodels
	Epochs int // e

	TWr float64 // W-step compute per submodel per point
	TWc float64 // W-step communication per submodel hop (inter-node)
	TZr float64 // Z-step compute per point per submodel

	// Alphas are per-machine relative speeds α_p (§4.3); nil means identical
	// machines. Shards are sized proportionally to α_p, the paper's load
	// balancing rule.
	Alphas []float64

	// Noise is the coefficient of variation of a multiplicative jitter on
	// every service time (0 = deterministic). Models the runtime variation
	// the paper attributes to ventilation, co-tenant processes, etc.
	Noise float64
	Seed  int64

	// Shuffle randomises the ring at each epoch (§4.3).
	Shuffle bool

	// ProcsPerNode > 0 places machines on nodes of that size; hops between
	// machines in the same node cost IntraTWc instead of TWc (§8.5). 0
	// means all machines share one node... with TWc used everywhere.
	ProcsPerNode int
	IntraTWc     float64
}

// Result reports the virtual-time outcome of one simulated iteration.
type Result struct {
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

type simToken struct {
	id    int
	step  int
	route []int
	train int
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

// Run simulates one ParMAC iteration (W step + Z step) and returns its
// virtual-time result.
func Run(cfg Config) Result {
	if cfg.P <= 0 || cfg.M <= 0 || cfg.N <= 0 {
		panic("sim: P, M, N must be positive")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	alphas := cfg.Alphas
	if alphas == nil {
		alphas = make([]float64, cfg.P)
		for i := range alphas {
			alphas[i] = 1
		}
	}
	if len(alphas) != cfg.P {
		panic("sim: len(Alphas) must equal P")
	}
	shardSizes := dataset.ShardSizes(cfg.N, cfg.P, alphas)

	jitter := func() float64 {
		if cfg.Noise <= 0 {
			return 1
		}
		j := 1 + rng.NormFloat64()*cfg.Noise
		if j < 0.05 {
			j = 0.05
		}
		return j
	}

	routes := buildRoutes(cfg, rng)

	// Event-driven W step: each machine is a FIFO server. Serving one token
	// costs the receive/send overhead plus, on training visits, a pass over
	// the local shard. Communication does not overlap computation (§5.1).
	var q eventQueue
	for id := range routes {
		tok := &simToken{id: id, route: routes[id], train: cfg.Epochs * cfg.P}
		heap.Push(&q, event{time: 0, machine: tok.route[0], tok: tok})
	}
	nextFree := make([]float64, cfg.P)
	var res Result
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
			c := cfg.hopCost(ev.tok.route[ev.tok.step-1], m) * jitter()
			service += c
			res.CommTime += c
		}
		if ev.tok.step < ev.tok.train {
			c := cfg.TWr * float64(shardSizes[m]) / alphas[m] * jitter()
			service += c
			res.CompTime += c
		}
		done := start + service
		nextFree[m] = done
		ev.tok.step++
		if ev.tok.step < len(ev.tok.route) {
			res.Hops++
			heap.Push(&q, event{time: done, machine: ev.tok.route[ev.tok.step], tok: ev.tok})
		}
	}
	for _, t := range nextFree {
		if t > res.TW {
			res.TW = t
		}
	}

	// Z step: perfectly parallel, makespan of the slowest machine (eq. 7
	// generalised to heterogeneous shards).
	for m := 0; m < cfg.P; m++ {
		c := float64(cfg.M) * float64(shardSizes[m]) * cfg.TZr / alphas[m] * jitter()
		res.CompTime += c
		if c > res.TZ {
			res.TZ = c
		}
	}
	res.T = res.TW + res.TZ
	return res
}

// hopCost is the communication cost of moving one submodel from machine a to
// machine b, honouring the node topology of §8.5.
func (cfg Config) hopCost(a, b int) float64 {
	if a == b {
		return 0 // staying put costs nothing (single-machine ring)
	}
	if cfg.ProcsPerNode <= 0 || cfg.IntraTWc <= 0 {
		return cfg.TWc
	}
	if a/cfg.ProcsPerNode == b/cfg.ProcsPerNode {
		return cfg.IntraTWc
	}
	return cfg.TWc
}

// buildRoutes mirrors the engine's itineraries: e training epochs over a
// (possibly per-epoch shuffled) ring, then a final round of P−1 copy hops.
func buildRoutes(cfg Config, rng *rand.Rand) [][]int {
	p, e := cfg.P, cfg.Epochs
	succ := make([][]int, e+1)
	for ep := 0; ep <= e; ep++ {
		order := make([]int, p)
		for i := range order {
			order[i] = i
		}
		if cfg.Shuffle {
			rng.Shuffle(p, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		s := make([]int, p)
		for i, r := range order {
			s[r] = order[(i+1)%p]
		}
		succ[ep] = s
	}
	routes := make([][]int, cfg.M)
	for id := 0; id < cfg.M; id++ {
		home := id % p
		route := make([]int, 0, (e+1)*p-1)
		cur := home
		for v := 0; v < (e+1)*p-1; v++ {
			route = append(route, cur)
			ep := (v + 1) / p
			if ep > e {
				ep = e
			}
			cur = succ[ep][cur]
		}
		routes[id] = route
	}
	return routes
}

// SerialTime is the single-machine reference T(1) of eq. (10): no
// communication, M·e passes for the W step plus the Z step.
func SerialTime(cfg Config) float64 {
	n, m, e := float64(cfg.N), float64(cfg.M), float64(cfg.Epochs)
	if cfg.Epochs <= 0 {
		e = 1
	}
	return m*n*e*cfg.TWr + m*n*cfg.TZr
}
