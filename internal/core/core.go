// Package core implements ParMAC (§4), the paper's contribution: a
// distributed computation model for the method of auxiliary coordinates.
//
// P machines hold disjoint data shards (and the auxiliary coordinates of
// their points, which never move). In the W step, M independent submodels
// circulate through the machines in a ring: each machine trains every
// submodel that passes through on its local shard (implicitly running SGD
// with per-machine minibatches), then forwards it to its successor. After e
// epochs (visits to every machine) plus one final round of communication,
// every machine holds a copy of the whole updated model. In the Z step, each
// machine updates the coordinates of its own points with no communication at
// all. Only model parameters ever cross the network.
//
// The engine is split along the paper's deployment boundary: the Engine is
// the coordinator on its fabric's last rank, machines run RunWorker
// (worker.go) on the ranks before it, and the two sides speak exclusively
// through the pluggable fabric of internal/cluster (Go channels, a chaos
// wrapper, TCP with submodels in the cluster wire codec). Every machine runs
// on a Problem of its own, holding its shard, and the shapes differ only in
// who launches the machines: New and NewOn run them as goroutines on
// Problems from a per-machine factory, NewDistributed drives machines
// launched elsewhere, such as OS processes.
// The engine supports the ParMAC extensions of §4.3: per-epoch ring
// shuffling, load balancing via unequal shards, streaming (machines can be
// added and retired between iterations) and fault tolerance (a machine can
// die mid-W-step; lost submodels are recovered from the redundant copies on
// their predecessor machines, and routes are repaired to skip the dead
// machine).
//
// One ownership rule holds on every fabric: a Submodel value is reachable
// from at most one machine or the coordinator. Whoever sends a submodel it
// also keeps sends or keeps a Clone — a machine keeps each submodel it
// processed as its replica and forwards a clone, the coordinator keeps the
// pre-iteration model while the clones it injected circulate. Over TCP the decode is a
// copy anyway; over the in-process fabric, where messages are pointers, the
// clones are what keep the replicas independent of the live tokens.
//
// A model family implements Problem by embedding Adapter (adapter.go: the
// submodel set and the μ schedule) and adding its shards, its Z step (fanned
// out with CountChunks) and its model assembly.
//
// The coordinator spans three files: core.go holds the types, Config, the
// construction body start with its three wrappers, and the Engine's public
// methods; iterate.go one iteration's phases (routes, the supervised W step,
// the W-ack drain, the Z step) and await, the bounded wait every phase
// collects replies through; recovery.go death handling (markDead, the probe
// sweep, resurrect, replica requests).
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/cluster"
)

// Shard is a machine-local slice of the data and its auxiliary coordinates.
// The engine never looks inside; it only schedules work against it.
type Shard interface {
	NumPoints() int
}

// ObjectiveShard is a shard whose Z step also scores it. A machine reads
// Objectives right after its ZStep and sends the two sums on ZDoneMsg, so
// the learning curve (IterationResult.EQ, EBA) is computed where the data
// lie (§4.1). Shards that do not implement it contribute 0.
type ObjectiveShard interface {
	// Objectives returns E_Q and the nested error E_BA summed over the
	// shard's points, as its last Z step left them.
	Objectives() (eq, eba float64)
}

// Submodel is one independent unit of the W step (a hash function, a decoder
// group, a hidden unit's weight vector...). Submodels own their parameters
// and any optimiser state (e.g. SGD schedules), which therefore circulate
// with them. Concrete types used across process boundaries must additionally
// have a wire codec carrying that state (cluster.RegisterWire).
type Submodel interface {
	// ID identifies the submodel; IDs must be 0..M-1.
	ID() int
	// TrainOn performs one stochastic pass over the shard, visiting points
	// in the given order. This is the "process it" of the paper's
	// asynchronous W step.
	TrainOn(shard Shard, order []int)
	// Clone returns a deep copy, used for the per-machine redundant copies
	// that give ParMAC its fault tolerance (§4.3).
	Clone() Submodel
	// Bytes is the serialised parameter size, accounted as t_c^W traffic.
	Bytes() int
}

// Problem adapts a specific MAC algorithm (binary autoencoder, deep net, …)
// to the engine.
type Problem interface {
	// Submodels returns the circulating submodels with IDs 0..M-1. The
	// engine keeps them as its pre-iteration model and trains clones; the
	// returned tokens replace them at the end of every iteration
	// (ModelSyncHook).
	Submodels() []Submodel
	// NumShards reports how many shards exist; shard i belongs to machine i.
	NumShards() int
	// Shard returns shard i.
	Shard(i int) Shard
	// ZStep updates the auxiliary coordinates of shard i given a complete
	// model (indexed by submodel ID) and returns how many coordinates
	// changed. It runs concurrently across machines and must only touch
	// shard-local state.
	ZStep(shard int, model []Submodel) int
}

// IterationHook is implemented by problems that advance per-iteration state
// (e.g. the μ schedule of the BA). The coordinator calls it on its Problem
// before each iteration's W step, and every machine calls it on its own
// Problem when the W step opens, so shard-local state (the μ used by the Z
// step) advances everywhere.
type IterationHook interface {
	OnIterationStart(iter int)
}

// ModelSyncHook is implemented by problems that hold their circulating
// submodels (for evaluation between iterations). The submodels that finish an
// iteration are the returned tokens, not the objects the iteration started
// from, on every fabric; the engine calls OnModelSync with that authoritative
// set at the end of every iteration so the problem's set follows it.
// Adapter implements it once for every model family.
type ModelSyncHook interface {
	OnModelSync(model []Submodel)
}

// Config parameterises the engine. The fabric, not Config, sets how many
// machines it can hold: every rank but the coordinator's (see NewOn).
type Config struct {
	P       int  // initial number of machines
	Epochs  int  // e: circulation epochs per W step
	Shuffle bool // shuffle the ring per epoch and within-machine order (§4.3)
	Seed    int64

	// RescueTimeout bounds every coordinator wait: how long the supervising
	// coordinator sits silent before re-probing, and the first wait for any
	// reply (rescue, probe, W ack, Z step, shutdown). A reply wait is retried
	// rescueRetries times, each retry doubling the previous wait; a machine
	// still silent after the last retry is declared dead. <= 0 means
	// DefaultRescueTimeout. Keep it above the worst-case single-visit
	// training or Z-step time, or slow-but-alive machines get declared dead.
	RescueTimeout time.Duration
}

// DefaultRescueTimeout is the default per-wait bound for failure detection
// and rescue replies.
const DefaultRescueTimeout = 30 * time.Second

// rescueRetries is how many times a reply wait is retried before the silent
// machines are declared dead.
const rescueRetries = 3

func (c *Config) fillDefaults() {
	if c.P <= 0 {
		c.P = 1
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.RescueTimeout <= 0 {
		c.RescueTimeout = DefaultRescueTimeout
	}
}

// FailureEvent records a machine death, detected via the transport
// (connection loss, SIGKILL): one event for the death itself (LostToken -1)
// and one per lost token recovered by the probe sweep (LostToken >= 0).
type FailureEvent struct {
	Rank      int
	LostToken int // submodel ID lost with the machine, -1 for the death itself
	Recovered bool
	FromRank  int // machine whose replica restored the lost submodel, -1
}

// IterationResult summarises one ParMAC iteration (one W step + one Z step).
type IterationResult struct {
	Iter          int
	ZChanged      int   // coordinates changed across all shards
	ModelMessages int64 // submodel hops in the W step
	ModelBytes    int64 // bytes of model parameters moved
	FixMessages   int   // post-W repairs of stale/missing local copies
	Failures      []FailureEvent
	AliveMachines int
	// DroppedFrames counts fabric frames discarded this iteration because
	// their destination had died (requires a stats source: automatic
	// in-process, SetStatsSource for distributed coordinators).
	DroppedFrames int64
	// EQ and EBA are the learning curve: the objectives each machine's Z step
	// reported for its shard (ObjectiveShard) — E_Q at the new coordinates
	// and this iteration's μ, and the nested error of the model the W step
	// produced — summed over the machines that answered this Z step, in
	// ascending rank order. A dead or retired machine's shard is not in
	// them. The sums have the same bits on every fabric and for every Z-step
	// parallelism.
	EQ, EBA float64
}

// message tags on the fabric.
const (
	tagWStart = iota
	tagToken
	tagFinished
	tagBounced
	tagRescue
	tagRescueReply
	tagWDone
	tagWAck
	tagFix
	tagZGo
	tagZDone
	tagShutdown
	tagShutdownAck
	tagRanksDead
	tagProbe
	tagProbeReply
)

// Engine is the ParMAC coordinator. It owns the authoritative model between
// iterations, builds itineraries, supervises failures and aggregates
// results; all machine interaction goes through its communicator.
type Engine struct {
	cfg  Config
	prob Problem

	coord  *cluster.Comm
	launch func(rank, shard int) // runs a machine on a rank; nil if launched elsewhere

	occupied []bool // rank has a (possibly dead) worker attached
	alive    []bool // rank is in the ring

	submodels []Submodel // authoritative model between iterations
	versions  []int      // training visits accumulated per submodel

	// incarnation counts coordinator resurrections per submodel; stale
	// finishes/bounces from a superseded token copy are dropped against it.
	incarnation []int

	rng  *rand.Rand
	iter int

	// per-iteration traffic generated by the coordinator itself
	coordHops  int64
	coordBytes int64

	// statsFn supplies fabric-level counters for DroppedFrames reporting
	// (NewOn wires its fabric's; distributed coordinators call
	// SetStatsSource).
	statsFn     func() cluster.Stats
	lastDropped int64

	// failures accumulates the deaths and recoveries not yet reported by an
	// IterationResult (Retire can record one between iterations).
	failures []FailureEvent
	// pendingDowns queues the deaths a replica request observed, for the
	// supervising loop to mark once the current sweep is over; resweep asks
	// it for a new probe sweep after a death.
	pendingDowns []int
	resweep      bool

	shutdown bool
}

// New creates an in-process engine for the problem over the channel
// backend, one rank per machine: machine i runs as a goroutine on
// machine(i), its own Problem holding shard i. An engine that streams
// machines in needs spare ranks: use NewOn over a larger fabric.
func New(prob Problem, cfg Config, machine func(shard int) Problem) *Engine {
	cfg.fillDefaults()
	return NewOn(prob, cfg, cluster.NewNetwork(cfg.P+1), machine)
}

// NewOn is New over a fabric the caller built (and closes): machines are
// still goroutines running on machine(shard), but their messages cross fab —
// a chaos wrapper that kills ranks, a loopback TCP fabric. The coordinator
// takes fab's last rank and the others are machine slots: cfg.P are filled
// at once, the rest are left for AddMachine.
func NewOn(prob Problem, cfg Config, fab cluster.Fabric, machine func(shard int) Problem) *Engine {
	e := start(prob, cfg, fab.Comm(fab.Size()-1), func(rank, shard int) {
		go RunWorker(fab.Comm(rank), machine(shard), shard, WorkerOptions{
			Seed: WorkerSeed(cfg.Seed, rank),
		})
	})
	e.statsFn = fab.Stats
	return e
}

// NewDistributed creates a coordinator over an external fabric (e.g. a TCP
// cluster): comm must be the last rank of a cfg.P+1-rank fabric, and cfg.P
// workers — launched separately with RunWorker, each on its own Problem —
// occupy ranks 0..P-1. Fault recovery works in this shape;
// streaming (AddMachine) needs an engine that launches its machines.
func NewDistributed(prob Problem, cfg Config, comm *cluster.Comm) *Engine {
	cfg.fillDefaults()
	if comm.Size() != cfg.P+1 {
		panic(fmt.Sprintf("core: %d workers need a %d-rank fabric, got %d ranks", cfg.P, cfg.P+1, comm.Size()))
	}
	return start(prob, cfg, comm, nil)
}

// start is the one construction body. coord must be its fabric's last rank;
// the ranks before it are the machine slots, and machines 0..P-1 attach to
// shards 0..P-1. launch runs a machine on a slot; it is nil when the
// machines are launched elsewhere.
func start(prob Problem, cfg Config, coord *cluster.Comm, launch func(rank, shard int)) *Engine {
	cfg.fillDefaults()
	slots := coord.Size() - 1
	if coord.Rank() != slots {
		panic(fmt.Sprintf("core: the coordinator needs the fabric's last rank %d, got rank %d", slots, coord.Rank()))
	}
	if slots < cfg.P {
		panic(fmt.Sprintf("core: %d machines need a fabric of at least %d ranks, got %d", cfg.P, cfg.P+1, coord.Size()))
	}
	e := &Engine{
		cfg:       cfg,
		prob:      prob,
		coord:     coord,
		launch:    launch,
		occupied:  make([]bool, slots),
		alive:     make([]bool, slots),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		submodels: prob.Submodels(),
	}
	for i, sm := range e.submodels {
		if sm.ID() != i {
			panic("core: submodel IDs must be 0..M-1 in order")
		}
	}
	e.versions = make([]int, len(e.submodels))
	e.incarnation = make([]int, len(e.submodels))
	for r := 0; r < cfg.P; r++ {
		e.attach(r, r)
	}
	return e
}

// attach puts a machine serving shard on a free rank, launching it (on a
// Problem of its own) when the engine launches its machines.
func (e *Engine) attach(rank, shard int) {
	if e.launch != nil {
		if shard < 0 || shard >= e.prob.NumShards() {
			panic(fmt.Sprintf("core: shard %d out of range [0,%d)", shard, e.prob.NumShards()))
		}
		e.launch(rank, shard)
	}
	e.occupied[rank] = true
	e.alive[rank] = true
}

// SetStatsSource wires a fabric-level stats snapshot (e.g. combining
// comm.Stats with tcp.Hub.DroppedFrames) so IterationResult.DroppedFrames is
// reported in the distributed shape. NewOn wires its fabric's.
func (e *Engine) SetStatsSource(fn func() cluster.Stats) { e.statsFn = fn }

// AliveRanks lists the machines currently in the ring.
func (e *Engine) AliveRanks() []int {
	var out []int
	for r := range e.alive {
		if e.occupied[r] && e.alive[r] {
			out = append(out, r)
		}
	}
	return out
}

// AddMachine launches a machine serving shard, on the Problem the engine's
// factory builds for it, on the lowest free rank and returns that rank. It
// implements the streaming extension: "adding it to the circular topology
// simply requires connecting it between any two machines" (§4.3). Call between iterations, on an engine that
// launches its machines (New, NewOn) over a fabric with a spare rank.
func (e *Engine) AddMachine(shard int) int {
	if e.launch == nil {
		panic("core: AddMachine needs an engine that launches its machines (New or NewOn)")
	}
	r := slices.Index(e.occupied, false)
	if r < 0 {
		panic("core: no free ranks; build the engine on a fabric with spare ranks")
	}
	e.attach(r, shard)
	return r
}

// Retire removes a machine from the ring between iterations ("to remove
// machine p, we do so in the Z step, by reconnecting machine p−1 → machine
// p+1 and returning machine p to the cluster", §4.3). Its shard's data are no
// longer visited. Only an acknowledged shutdown frees the rank for a later
// AddMachine (the old worker must be gone before its communicator is
// reused); a machine that dies or stays silent instead is marked dead, and
// the next IterationResult reports it.
func (e *Engine) Retire(rank int) {
	if !e.occupied[rank] || !e.alive[rank] {
		panic("core: Retire of absent machine")
	}
	acked := false
	e.await(nil, []int{rank}, tagShutdown, nil, tagShutdownAck, func(cluster.Message) { acked = true })
	e.alive[rank] = false
	e.occupied[rank] = !acked
}

// Shutdown terminates all machine loops. The engine is unusable after.
func (e *Engine) Shutdown() {
	if e.shutdown {
		return
	}
	e.shutdown = true
	for r := range e.occupied {
		if e.occupied[r] {
			e.coord.Send(r, tagShutdown, nil, 0)
		}
	}
}

// Run performs iters iterations and returns their results.
func (e *Engine) Run(iters int) []IterationResult {
	out := make([]IterationResult, 0, iters)
	for i := 0; i < iters; i++ {
		out = append(out, e.Iterate())
	}
	return out
}
