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
// the coordinator, machines run RunWorker (worker.go), and the two sides
// speak exclusively through the pluggable fabric of internal/cluster — Go
// channels in-process (New and NewOn spawn the workers themselves) or TCP
// between OS processes (NewDistributed drives externally launched workers,
// with submodels encoded in the cluster wire codec). The engine supports the ParMAC
// extensions of §4.3: per-epoch ring shuffling, load balancing via unequal
// shards, streaming (machines can be added and retired between iterations)
// and fault tolerance (a machine can die mid-W-step; lost submodels are
// recovered from the redundant copies on their predecessor machines, and
// routes are repaired to skip the dead machine).
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
)

// Shard is a machine-local slice of the data and its auxiliary coordinates.
// The engine never looks inside; it only schedules work against it.
type Shard interface {
	NumPoints() int
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
	// engine trains these objects in place across iterations.
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
// (e.g. the μ schedule of the BA). In the in-process shape it is called
// once, before each iteration's W step, on the coordinator's problem; in the
// distributed shape each worker additionally calls it on its own problem
// instance when the W step opens, so shard-local state (the μ used by the Z
// step) advances everywhere.
type IterationHook interface {
	OnIterationStart(iter int)
}

// ModelSyncHook is implemented by problems that cache references to their
// circulating submodels (for evaluation between iterations). Fault recovery
// replaces a lost submodel with a recovered clone, so the cached references
// can go stale; the engine calls OnModelSync with the authoritative set at
// the end of every iteration.
type ModelSyncHook interface {
	OnModelSync(model []Submodel)
}

// Config parameterises the engine.
type Config struct {
	P       int  // initial number of machines
	Epochs  int  // e: circulation epochs per W step
	Within  int  // within-machine passes per visit (§4.2); default 1
	Shuffle bool // shuffle the ring per epoch and within-machine order (§4.3)
	Seed    int64

	// Replicas makes machines store deep copies of passing submodels rather
	// than sharing pointers. Required for fault tolerance; costs memory,
	// exactly the paper's "in-built redundance". Distributed workers always
	// hold private decoded copies, so there it is implied.
	Replicas bool

	// MaxMachines reserves fabric ranks for machines added later by
	// streaming. Defaults to P.
	MaxMachines int

	// RescueTimeout bounds every failure-era wait: how long the supervising
	// coordinator sits silent before re-probing, and the first wait for a
	// rescue/probe/ack reply. <= 0 means DefaultRescueTimeout. Keep it
	// above the worst-case single-visit training time, or slow-but-alive
	// machines get declared dead.
	RescueTimeout time.Duration
	// RescueRetries bounds how many times a reply wait is retried, each
	// retry doubling the previous wait (exponential backoff). A machine
	// still silent after the last retry is declared dead. <= 0 means 3.
	RescueRetries int
}

// DefaultRescueTimeout is the default per-wait bound for failure detection
// and rescue replies.
const DefaultRescueTimeout = 30 * time.Second

func (c *Config) fillDefaults() {
	if c.P <= 0 {
		c.P = 1
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.Within <= 0 {
		c.Within = 1
	}
	if c.MaxMachines < c.P {
		c.MaxMachines = c.P
	}
	if c.RescueTimeout <= 0 {
		c.RescueTimeout = DefaultRescueTimeout
	}
	if c.RescueRetries <= 0 {
		c.RescueRetries = 3
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

	fab   cluster.Fabric // in-process shape only: the fabric the workers run on
	coord *cluster.Comm

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
	// (the in-process engine wires its own fabric; distributed coordinators
	// call SetStatsSource).
	statsFn     func() cluster.Stats
	lastDropped int64

	// pendingDowns queues ranks whose death was observed inside a nested
	// wait (rescue, probe) or declared by patience exhaustion, for the
	// supervising loop to process.
	pendingDowns []int

	shutdown bool
}

// New creates an in-process engine for the problem: the fabric is the
// channel backend and machine i runs as a goroutine attached to
// prob.Shard(i). prob.NumShards() must be >= cfg.P.
func New(prob Problem, cfg Config) *Engine {
	cfg.fillDefaults()
	return NewOn(prob, cfg, cluster.NewNetwork(cfg.MaxMachines+1))
}

// NewOn is New over a fabric the caller built (and closes): machines are
// still goroutines of this process sharing prob, but their messages cross
// fab — a chaos wrapper that kills ranks, a loopback TCP fabric. fab needs
// one rank per machine slot plus the coordinator's, which is the last.
func NewOn(prob Problem, cfg Config, fab cluster.Fabric) *Engine {
	cfg.fillDefaults()
	if prob.NumShards() < cfg.P {
		panic(fmt.Sprintf("core: %d shards for %d machines", prob.NumShards(), cfg.P))
	}
	if fab.Size() != cfg.MaxMachines+1 {
		panic(fmt.Sprintf("core: %d machine slots need a %d-rank fabric, got %d ranks",
			cfg.MaxMachines, cfg.MaxMachines+1, fab.Size()))
	}
	e := newEngine(prob, cfg, fab.Comm(cfg.MaxMachines))
	e.fab = fab
	e.statsFn = fab.Stats
	for r := 0; r < cfg.P; r++ {
		e.spawnMachine(r, r)
	}
	return e
}

// NewDistributed creates a coordinator over an external fabric (e.g. a TCP
// cluster): comm must be the fabric's last rank, and cfg.P workers —
// launched separately with RunWorker, each owning its Problem instance —
// occupy ranks 0..P-1. Streaming (AddMachine) is not available in this
// shape; fault recovery is.
func NewDistributed(prob Problem, cfg Config, comm *cluster.Comm) *Engine {
	cfg.MaxMachines = cfg.P // streaming needs worker spawning; no spare ranks here
	cfg.fillDefaults()
	if comm.Size() != cfg.P+1 || comm.Rank() != cfg.P {
		panic(fmt.Sprintf("core: coordinator needs rank %d of a %d-rank fabric, got rank %d of %d",
			cfg.P, cfg.P+1, comm.Rank(), comm.Size()))
	}
	e := newEngine(prob, cfg, comm)
	for r := 0; r < cfg.P; r++ {
		e.occupied[r] = true
		e.alive[r] = true
	}
	return e
}

func newEngine(prob Problem, cfg Config, coord *cluster.Comm) *Engine {
	e := &Engine{
		cfg:      cfg,
		prob:     prob,
		coord:    coord,
		occupied: make([]bool, cfg.MaxMachines),
		alive:    make([]bool, cfg.MaxMachines),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	e.submodels = prob.Submodels()
	for i, sm := range e.submodels {
		if sm.ID() != i {
			panic("core: submodel IDs must be 0..M-1 in order")
		}
	}
	e.versions = make([]int, len(e.submodels))
	e.incarnation = make([]int, len(e.submodels))
	return e
}

// SetStatsSource wires a fabric-level stats snapshot (e.g. combining
// comm.Stats with tcp.Hub.DroppedFrames) so IterationResult.DroppedFrames is
// reported in the distributed shape. The in-process engine wires its own.
func (e *Engine) SetStatsSource(fn func() cluster.Stats) { e.statsFn = fn }

func (e *Engine) spawnMachine(rank, shard int) {
	e.occupied[rank] = true
	e.alive[rank] = true
	go RunWorker(e.fab.Comm(rank), e.prob, shard, WorkerOptions{
		Seed:          WorkerSeed(e.cfg.Seed, rank),
		SharedProblem: true,
	})
}

// M returns the number of submodels.
func (e *Engine) M() int { return len(e.submodels) }

// Model returns the authoritative submodels (valid between iterations).
func (e *Engine) Model() []Submodel { return e.submodels }

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

// AddMachine attaches a new machine serving prob.Shard(shard) and returns its
// rank. It implements the streaming extension: "adding it to the circular
// topology simply requires connecting it between any two machines" (§4.3).
// Call between iterations. In-process engines only.
func (e *Engine) AddMachine(shard int) int {
	if e.fab == nil {
		panic("core: AddMachine requires the in-process engine")
	}
	for r := range e.occupied {
		if !e.occupied[r] {
			if shard >= e.prob.NumShards() {
				panic("core: AddMachine shard out of range")
			}
			e.spawnMachine(r, shard)
			return r
		}
	}
	panic("core: no free ranks; raise Config.MaxMachines")
}

// Retire removes a machine from the ring between iterations ("to remove
// machine p, we do so in the Z step, by reconnecting machine p−1 → machine
// p+1 and returning machine p to the cluster", §4.3). Its shard's data are no
// longer visited.
func (e *Engine) Retire(rank int) {
	if !e.occupied[rank] || !e.alive[rank] {
		panic("core: Retire of absent machine")
	}
	e.alive[rank] = false
	e.coordSendTo(rank, tagShutdown, nil)
	// Wait for the machine to acknowledge: its rank (and communicator) may
	// be reused by a later AddMachine, so the old worker must be gone first.
	e.coord.RecvFrom(rank, tagShutdownAck)
	e.occupied[rank] = false
}

// Shutdown terminates all machine loops. The engine is unusable after.
func (e *Engine) Shutdown() {
	if e.shutdown {
		return
	}
	e.shutdown = true
	for r := range e.occupied {
		if e.occupied[r] {
			e.coordSendTo(r, tagShutdown, nil)
		}
	}
}

func (e *Engine) coordSendTo(rank, tag int, payload any) {
	e.coord.Send(rank, tag, payload, 0)
}

// wState is the coordinator's view of one W step: which tokens finished at
// which version, the itineraries, and the last send the coordinator itself
// made per token (the coordinator's own trace entry for the probe sweep).
type wState struct {
	res      *IterationResult
	routes   [][]int
	train    int
	final    []int
	done     []bool
	finished int
	sent     []coordSend
}

// coordSend remembers the coordinator's last forward of a token: where it
// went and what state it carried. If the token is lost before any machine
// processes it again, this is both the trace and the recovery source (the
// object is unmutated since the send — nobody else holds the token).
type coordSend struct {
	valid   bool
	step    int
	to      int
	version int
	sm      Submodel
}

// Iterate runs one full ParMAC iteration (W step then Z step) and returns its
// summary.
func (e *Engine) Iterate() IterationResult {
	if hook, ok := e.prob.(IterationHook); ok {
		hook.OnIterationStart(e.iter)
	}
	res := IterationResult{Iter: e.iter}
	e.coordHops, e.coordBytes = 0, 0

	// Deaths observed between iterations (e.g. a machine SIGKILLed after its
	// Z ack) must be known before routes are built.
	e.collectDowns(&res)

	aliveList := e.AliveRanks()
	p := len(aliveList)
	if p == 0 {
		panic("core: no machines alive")
	}
	trainVisits := e.cfg.Epochs * p
	m := len(e.submodels)
	st := &wState{
		res:    &res,
		routes: e.buildRoutes(aliveList, trainVisits),
		train:  trainVisits,
		final:  make([]int, m),
		done:   make([]bool, m),
		sent:   make([]coordSend, m),
	}

	// Start the W step on all alive machines.
	for _, r := range aliveList {
		e.coordSendTo(r, tagWStart, WStartMsg{
			Iter: e.iter, Train: trainVisits, Within: e.cfg.Within,
			Shuffle: e.cfg.Shuffle, Replicas: e.cfg.Replicas, M: m,
		})
	}
	// Inject the initial tokens at their home machines.
	for i, sm := range e.submodels {
		tok := &Token{SM: sm, ID: i, Version: e.versions[i], Route: st.routes[i],
			Train: trainVisits, Incarnation: e.incarnation[i]}
		// Placement is free: submodel i starts resident at its home machine.
		st.sent[i] = coordSend{valid: true, step: 0, to: tok.Route[0], version: tok.Version, sm: tok.SM}
		e.coord.Send(tok.Route[0], tagToken, tok, 0)
	}

	e.supervise(st)
	copy(e.versions, st.final)

	e.drainWAcks(st)
	e.runZPhase(st)

	res.ModelMessages += e.coordHops
	res.ModelBytes += e.coordBytes
	res.AliveMachines = len(e.AliveRanks())
	if e.statsFn != nil {
		d := e.statsFn().Dropped
		res.DroppedFrames = d - e.lastDropped
		e.lastDropped = d
	}
	if hook, ok := e.prob.(ModelSyncHook); ok {
		hook.OnModelSync(e.submodels)
	}
	e.iter++
	return res
}

// supervise waits until every token has finished, turning transport
// peer-down events into death handling and re-probing after silence whenever failures have already happened. No wait here is
// unbounded once a failure is in play.
func (e *Engine) supervise(st *wState) {
	for st.finished < len(e.submodels) {
		if len(e.pendingDowns) > 0 {
			r := e.pendingDowns[0]
			e.pendingDowns = e.pendingDowns[1:]
			if e.markDead(r, st.res) {
				e.sweep(st)
			}
			continue
		}
		msg, err := e.coord.RecvEvent(cluster.AnySource, cluster.AnyTag, e.cfg.RescueTimeout)
		if err != nil {
			var pd *cluster.PeerDownError
			switch {
			case errors.As(err, &pd):
				if e.markDead(pd.Rank, st.res) {
					e.sweep(st)
				}
			case errors.Is(err, cluster.ErrRecvTimeout):
				// Healthy-but-slow iterations just keep waiting; once any
				// machine has died this iteration, silence means a token may
				// be lost — re-probe.
				if len(st.res.Failures) > 0 {
					e.sweep(st)
				}
			default:
				panic(fmt.Sprintf("core: coordinator lost its fabric: %v", err))
			}
			continue
		}
		e.superviseMsg(msg, st)
	}
}

// superviseMsg dispatches one message during the W step (also used while a
// probe sweep is collecting, so deaths and finishes interleave correctly).
func (e *Engine) superviseMsg(msg cluster.Message, st *wState) {
	switch msg.Tag {
	case tagFinished:
		tok := msg.Payload.(*Token)
		if tok.Incarnation != e.incarnation[tok.ID] || st.done[tok.ID] {
			return // a superseded duplicate survived; drop it
		}
		e.finishToken(tok, st)
	case tagBounced:
		tok := msg.Payload.(*Token)
		if tok.Incarnation != e.incarnation[tok.ID] || st.done[tok.ID] {
			return
		}
		if !e.forwardFromCoord(tok, st) {
			e.finishToken(tok, st)
		}
	case tagProbeReply, tagRescueReply, tagWAck:
		// Late replies from an abandoned wait; already accounted for.
	default:
		panic(fmt.Sprintf("core: coordinator got unexpected tag %d", msg.Tag))
	}
}

func (e *Engine) finishToken(tok *Token, st *wState) {
	e.submodels[tok.ID] = tok.SM
	st.final[tok.ID] = tok.Version
	st.done[tok.ID] = true
	st.sent[tok.ID].valid = false
	st.finished++
}

// markDead flips rank to dead, records the failure, and broadcasts the
// updated dead set to the survivors. It reports false when the rank was
// already gone (duplicate signals are expected: transport event + patience
// exhaustion can both fire).
func (e *Engine) markDead(rank int, res *IterationResult) bool {
	if rank < 0 || rank >= len(e.alive) || !e.occupied[rank] || !e.alive[rank] {
		return false
	}
	e.alive[rank] = false
	res.Failures = append(res.Failures, FailureEvent{
		Rank: rank, LostToken: -1, FromRank: -1,
	})
	e.broadcastDead()
	return true
}

// broadcastDead tells every live machine which ranks are out of the ring, so
// their token forwards skip the dead instead of sending into a void.
func (e *Engine) broadcastDead() {
	var dead []int
	for r := range e.alive {
		if e.occupied[r] && !e.alive[r] {
			dead = append(dead, r)
		}
	}
	msg := DeadRanksMsg{Dead: dead}
	for _, r := range e.AliveRanks() {
		e.coordSendTo(r, tagRanksDead, msg)
	}
}

// flushPendingDowns marks dead any ranks whose down signal was consumed by a
// nested wait but not yet processed, so the drain phases don't wait on them.
func (e *Engine) flushPendingDowns(st *wState) {
	for _, r := range e.pendingDowns {
		e.markDead(r, st.res)
	}
	e.pendingDowns = nil
}

// collectDowns drains peer-down signals that arrived outside a supervised
// wait (between iterations, or queued by a nested wait).
func (e *Engine) collectDowns(res *IterationResult) {
	for _, r := range e.coord.PollDown() {
		e.markDead(r, res)
	}
	for _, r := range e.pendingDowns {
		e.markDead(r, res)
	}
	e.pendingDowns = nil
}

// Run performs iters iterations and returns their results.
func (e *Engine) Run(iters int) []IterationResult {
	out := make([]IterationResult, 0, iters)
	for i := 0; i < iters; i++ {
		out = append(out, e.Iterate())
	}
	return out
}

// buildRoutes constructs each token's itinerary: e epochs of training visits
// plus the final round of P−1 copy-only hops (§4.1). Homes are dealt
// round-robin; with Shuffle, each epoch uses a fresh random cyclic ring
// ("reorganise the circular topology randomly while still circular", §4.3).
func (e *Engine) buildRoutes(alive []int, trainVisits int) [][]int {
	p := len(alive)
	// succ[epoch][rank] = successor rank in that epoch's ring.
	epochs := e.cfg.Epochs
	succ := make([]map[int]int, epochs+1)
	for ep := 0; ep <= epochs; ep++ {
		order := make([]int, p)
		copy(order, alive)
		if e.cfg.Shuffle {
			e.rng.Shuffle(p, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		s := make(map[int]int, p)
		for i, r := range order {
			s[r] = order[(i+1)%p]
		}
		succ[ep] = s
	}
	routes := make([][]int, len(e.submodels))
	for id := range e.submodels {
		home := alive[id%p]
		route := make([]int, 0, trainVisits+p-1)
		cur := home
		for v := 0; v < trainVisits+p-1; v++ {
			route = append(route, cur)
			ep := (v + 1) / p
			if ep > epochs {
				ep = epochs
			}
			cur = succ[ep][cur]
		}
		routes[id] = route
	}
	return routes
}

// traceCand is one account of a token's whereabouts during the probe sweep:
// "machine from sent it toward position entry.Step, holding a replica at
// entry.Version". from -1 is the coordinator's own last send.
type traceCand struct {
	from  int
	entry TraceEntry
}

// sweep reconstructs the state of every unfinished token after a machine
// death from the survivors' records, since the dead machine reports nothing:
// probe all live machines for their last-forward traces, find each token's
// most advanced account, and resurrect the tokens whose last known holder is
// dead (§4.3 "revert to the previously updated copy"). Sound for a
// single concurrent failure because the transport delivers a dead peer's
// final forwards before its down event, so a probe sent after the down
// event is answered only after those forwards were processed; overlapping
// failures are handled best-effort (training completes, every death is
// recorded, but a token caught between two deaths may lose or repeat
// visits: a machine that dies mid-sweep leaves the accounts of what it
// forwarded stale).
func (e *Engine) sweep(st *wState) {
	if st.finished >= len(e.submodels) {
		return
	}
	expect := make(map[int]bool)
	for _, r := range e.AliveRanks() {
		e.coordSendTo(r, tagProbe, nil)
		expect[r] = true
	}
	collected := make(map[int][]traceCand)
	wait := e.cfg.RescueTimeout
	retries := e.cfg.RescueRetries
	for len(expect) > 0 {
		msg, err := e.coord.RecvEvent(cluster.AnySource, cluster.AnyTag, wait)
		if err != nil {
			var pd *cluster.PeerDownError
			switch {
			case errors.As(err, &pd):
				e.markDead(pd.Rank, st.res)
				delete(expect, pd.Rank)
			case errors.Is(err, cluster.ErrRecvTimeout):
				if retries == 0 {
					// Patience exhausted: the silent machines are dead.
					for r := range expect {
						e.markDead(r, st.res)
						delete(expect, r)
					}
					continue
				}
				retries--
				wait *= 2
			default:
				panic(fmt.Sprintf("core: coordinator lost its fabric: %v", err))
			}
			continue
		}
		if msg.Tag == tagProbeReply && expect[msg.From] {
			delete(expect, msg.From)
			for _, en := range msg.Payload.(ProbeReply).Entries {
				collected[en.ID] = append(collected[en.ID], traceCand{from: msg.From, entry: en})
			}
			continue
		}
		// Tokens keep finishing (and machines keep dying) while the sweep
		// collects; handle them through the normal dispatcher.
		e.superviseMsg(msg, st)
	}
	for id := range e.submodels {
		if st.done[id] {
			continue
		}
		cands := append([]traceCand(nil), collected[id]...)
		if s := st.sent[id]; s.valid {
			cands = append(cands, traceCand{from: -1,
				entry: TraceEntry{ID: id, Step: s.step, To: s.to, Version: s.version}})
		}
		if len(cands) == 0 {
			continue
		}
		// Most advanced account first; the coordinator's own wins ties (its
		// copy is exact). Ties between machines cannot disagree: equal Step
		// means the same forward observed twice.
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].entry.Step != cands[j].entry.Step {
				return cands[i].entry.Step > cands[j].entry.Step
			}
			return cands[i].from < cands[j].from
		})
		top := cands[0]
		if top.entry.To == e.coord.Rank() {
			continue // in flight to the coordinator; supervise will receive it
		}
		if e.alive[top.entry.To] {
			continue // still circulating at a live machine
		}
		e.resurrect(id, cands, st)
	}
}

// resurrect rebuilds a token lost with a dead machine and re-injects it at
// the position it died, under a bumped incarnation so any surviving
// duplicate of the old copy is dropped on arrival. The replica walk goes
// from the most advanced surviving account backwards: the ring predecessor's
// copy first, older copies if that rescuer dies or is silent, ultimately the
// authoritative pre-iteration state.
func (e *Engine) resurrect(id int, cands []traceCand, st *wState) {
	top := cands[0]
	ev := FailureEvent{Rank: top.entry.To, LostToken: id, FromRank: -1}
	tok := &Token{ID: id, Route: st.routes[id], Train: st.train, Step: top.entry.Step}
	recovered := false
	for _, c := range cands {
		if c.from < 0 {
			// The coordinator's own send was never processed by anyone: its
			// retained copy is exactly the lost state.
			s := st.sent[id]
			tok.SM = s.sm.Clone()
			tok.Version = s.version
			recovered = true
			break
		}
		if !e.alive[c.from] {
			continue
		}
		reply, ok := e.requestReplica(c.from, id)
		if ok && reply.OK {
			tok.SM = reply.SM
			tok.Version = reply.Version
			ev.FromRank = c.from
			recovered = true
			break
		}
	}
	if !recovered {
		// No replica anywhere: restart from the authoritative pre-iteration
		// state.
		tok.SM = e.submodels[id].Clone()
		tok.Version = e.versions[id]
	}
	ev.Recovered = true
	e.incarnation[id]++
	tok.Incarnation = e.incarnation[id]
	st.res.Failures = append(st.res.Failures, ev)
	if !e.forwardFromCoord(tok, st) {
		e.finishToken(tok, st)
	}
}

// requestReplica asks rank r for its replica of submodel id, with bounded
// patience (RescueTimeout doubling per retry). ok is false when r died or
// stayed silent past the last retry; any death observed while waiting is
// queued on pendingDowns for the supervising loop to process.
func (e *Engine) requestReplica(r, id int) (RescueReply, bool) {
	if r < 0 || r >= len(e.alive) || !e.alive[r] || e.coord.Down(r) {
		return RescueReply{}, false
	}
	e.coordSendTo(r, tagRescue, id)
	wait := e.cfg.RescueTimeout
	for try := 0; ; try++ {
		msg, err := e.coord.RecvEvent(r, tagRescueReply, wait)
		if err == nil {
			return msg.Payload.(RescueReply), true
		}
		var pd *cluster.PeerDownError
		switch {
		case errors.As(err, &pd):
			e.pendingDowns = append(e.pendingDowns, pd.Rank)
			if pd.Rank == r {
				return RescueReply{}, false
			}
		case errors.Is(err, cluster.ErrRecvTimeout):
			if try >= e.cfg.RescueRetries {
				e.pendingDowns = append(e.pendingDowns, r)
				return RescueReply{}, false
			}
			wait *= 2
		default:
			panic(fmt.Sprintf("core: coordinator lost its fabric: %v", err))
		}
	}
}

// drainWAcks closes the W step: every live machine reports its local model
// inventory and traffic counters, and stale or missing copies are repaired
// so the Z step sees the full model. A machine that dies during the drain
// is marked dead and skipped.
func (e *Engine) drainWAcks(st *wState) {
	e.flushPendingDowns(st)
	expect := make(map[int]bool)
	for _, r := range e.AliveRanks() {
		e.coordSendTo(r, tagWDone, nil)
		expect[r] = true
	}
	wait := e.cfg.RescueTimeout
	retries := e.cfg.RescueRetries
	for len(expect) > 0 {
		msg, err := e.coord.RecvEvent(cluster.AnySource, cluster.AnyTag, wait)
		if err != nil {
			var pd *cluster.PeerDownError
			switch {
			case errors.As(err, &pd):
				e.markDead(pd.Rank, st.res)
				delete(expect, pd.Rank)
			case errors.Is(err, cluster.ErrRecvTimeout):
				if retries == 0 {
					for r := range expect {
						e.markDead(r, st.res)
						delete(expect, r)
					}
					continue
				}
				retries--
				wait *= 2
			default:
				panic(fmt.Sprintf("core: coordinator lost its fabric: %v", err))
			}
			continue
		}
		if msg.Tag != tagWAck || !expect[msg.From] {
			continue // straggler from the supervised phase; already accounted
		}
		delete(expect, msg.From)
		ack := msg.Payload.(WAckMsg)
		st.res.ModelMessages += ack.Hops
		st.res.ModelBytes += ack.Bytes
		have := make(map[int]int, len(ack.Entries))
		for _, en := range ack.Entries {
			have[en.ID] = en.Version
		}
		for id, sm := range e.submodels {
			v, ok := have[id]
			stale := !ok || (v >= 0 && v != st.final[id])
			if stale {
				var payload Submodel
				if e.cfg.Replicas {
					payload = sm.Clone()
				} else {
					payload = sm
				}
				e.coord.Send(msg.From, tagFix, FixMsg{ID: id, SM: payload}, sm.Bytes())
				e.coordBytes += int64(sm.Bytes())
				st.res.FixMessages++
			}
		}
	}
}

// runZPhase triggers the shard-local Z step (§4.1: no communication between
// machines) on every live machine and collects the change counts. tagZGo is
// never re-sent — ZStep is not idempotent — so a machine that dies here
// just loses its shard's update for this iteration.
func (e *Engine) runZPhase(st *wState) {
	e.flushPendingDowns(st)
	expect := make(map[int]bool)
	for _, r := range e.AliveRanks() {
		e.coordSendTo(r, tagZGo, nil)
		expect[r] = true
	}
	wait := e.cfg.RescueTimeout
	retries := e.cfg.RescueRetries
	for len(expect) > 0 {
		msg, err := e.coord.RecvEvent(cluster.AnySource, cluster.AnyTag, wait)
		if err != nil {
			var pd *cluster.PeerDownError
			switch {
			case errors.As(err, &pd):
				e.markDead(pd.Rank, st.res)
				delete(expect, pd.Rank)
			case errors.Is(err, cluster.ErrRecvTimeout):
				if retries == 0 {
					for r := range expect {
						e.markDead(r, st.res)
						delete(expect, r)
					}
					continue
				}
				retries--
				wait *= 2
			default:
				panic(fmt.Sprintf("core: coordinator lost its fabric: %v", err))
			}
			continue
		}
		if msg.Tag != tagZDone || !expect[msg.From] {
			continue
		}
		delete(expect, msg.From)
		st.res.ZChanged += msg.Payload.(ZDoneMsg).Changed
	}
}

// forwardFromCoord advances tok.Step to the next alive itinerary position and
// sends the token there, recording the send as the coordinator's trace entry
// for the probe sweep. It reports false when no alive position remains (the
// token is finished).
func (e *Engine) forwardFromCoord(tok *Token, st *wState) bool {
	for pos := tok.Step; pos < len(tok.Route); pos++ {
		if e.alive[tok.Route[pos]] {
			tok.Step = pos
			e.coordHops++
			e.coordBytes += int64(tok.SM.Bytes())
			st.sent[tok.ID] = coordSend{valid: true, step: pos, to: tok.Route[pos], version: tok.Version, sm: tok.SM}
			e.coord.Send(tok.Route[pos], tagToken, tok, tok.SM.Bytes())
			return true
		}
	}
	return false
}
