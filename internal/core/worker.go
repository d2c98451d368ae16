package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cluster"
)

// The machine side of the ParMAC protocol. A worker talks to the coordinator
// and its ring neighbours exclusively through its communicator — it shares
// no memory with the Engine — so the same loop serves both deployment
// shapes: a goroutine per machine over the in-process fabric (New and NewOn
// spawn these) and one OS process per machine over the TCP fabric
// (cmd/parmac-train -worker runs this as its main loop).

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Seed drives the machine-local shuffling RNG. Use WorkerSeed so every
	// deployment shape derives the same per-rank stream.
	Seed int64
	// SharedProblem marks the in-process shape, where the worker's Problem
	// is the coordinator's: per-iteration problem hooks then run once on the
	// coordinator instead of on every machine, and local submodel copies
	// follow Config.Replicas aliasing semantics. Distributed workers own
	// their Problem instance and leave this false.
	SharedProblem bool
}

// WorkerSeed derives the canonical per-rank RNG seed, identical across
// backends so a fixed-seed run is reproducible in either deployment shape.
func WorkerSeed(base int64, rank int) int64 { return base + 1000003*int64(rank+1) }

// RunWorker runs one machine: it serves W-step, repair, rescue and Z-step
// requests over comm until the coordinator sends a shutdown. The machine is
// attached to prob.Shard(shard); the coordinator is the fabric's last rank.
func RunWorker(comm *cluster.Comm, prob Problem, shard int, opt WorkerOptions) {
	w := &worker{
		comm:      comm,
		prob:      prob,
		shard:     shard,
		shared:    opt.SharedProblem,
		coordRank: comm.Size() - 1,
		rank:      comm.Rank(),
		local:     make(map[int]localEntry),
		deadRanks: make(map[int]bool),
		traces:    make(map[int]TraceEntry),
		rng:       rand.New(rand.NewSource(opt.Seed)),
	}
	w.run()
}

// localEntry is a machine's copy of a submodel as of some version.
type localEntry struct {
	sm      Submodel
	version int
}

type worker struct {
	comm      *cluster.Comm
	prob      Problem
	shard     int
	shared    bool
	coordRank int
	rank      int
	local     map[int]localEntry
	deadRanks map[int]bool       // ranks known to have left the ring
	traces    map[int]TraceEntry // per token: last forward this machine made
	rng       *rand.Rand

	// per-iteration state, armed by WStartMsg
	m        int
	replicas bool
	hops     int64
	bytes    int64
}

// recv is the worker's failure-aware receive. Peer-down events observed on
// the transport feed the dead-rank set (so forwards reroute) and the wait
// continues; ok is false when this worker's own fabric attachment is gone,
// which is the worker's cue to exit quietly — never to panic.
func (w *worker) recv() (cluster.Message, bool) {
	for {
		msg, err := w.comm.RecvEvent(cluster.AnySource, cluster.AnyTag, -1)
		if err == nil {
			return msg, true
		}
		var pd *cluster.PeerDownError
		if errors.As(err, &pd) {
			w.deadRanks[pd.Rank] = true
			continue
		}
		return cluster.Message{}, false
	}
}

func (w *worker) run() {
	for {
		msg, ok := w.recv()
		if !ok {
			return
		}
		switch msg.Tag {
		case tagWStart:
			if w.runWStep(msg.Payload.(WStartMsg)) {
				return
			}
		case tagFix:
			fix := msg.Payload.(FixMsg)
			w.local[fix.ID] = localEntry{sm: fix.SM, version: -2}
		case tagZGo:
			w.runZStep()
		case tagShutdown:
			w.ackShutdown()
			return
		case tagToken:
			// A token raced a shutdown/retire; bounce it to the coordinator.
			w.comm.Send(w.coordRank, tagBounced, msg.Payload, 0)
		case tagRescue:
			w.handleRescue(msg.Payload.(int))
		case tagRanksDead:
			w.mergeDeadRanks(msg.Payload.(DeadRanksMsg))
		case tagProbe:
			w.sendProbeReply()
		case tagWDone:
			// A drain request that arrived after the W step already closed
			// (e.g. the coordinator re-drained around a failure): re-ack the
			// inventory; the traffic counters were already reported.
			w.comm.Send(w.coordRank, tagWAck, WAckMsg{Entries: w.inventory()}, 0)
		default:
			panic(fmt.Sprintf("core: machine %d got unexpected tag %d", w.rank, msg.Tag))
		}
	}
}

func (w *worker) mergeDeadRanks(m DeadRanksMsg) {
	for _, r := range m.Dead {
		w.deadRanks[r] = true
	}
}

// isDeadRank combines coordinator knowledge (DeadRanksMsg) with transport
// knowledge (peer-down events this worker has drained itself).
func (w *worker) isDeadRank(r int) bool {
	return w.deadRanks[r] || w.comm.Down(r)
}

// sendProbeReply reports every token trace of the current W step, sorted by
// submodel ID for determinism.
func (w *worker) sendProbeReply() {
	entries := make([]TraceEntry, 0, len(w.traces))
	for _, tr := range w.traces {
		entries = append(entries, tr)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	w.comm.Send(w.coordRank, tagProbeReply, ProbeReply{Entries: entries}, 0)
}

// ackShutdown is the worker's very last send: Retire blocks on it before
// releasing the rank, so a successor machine can never share this worker's
// communicator.
func (w *worker) ackShutdown() {
	w.comm.Send(w.coordRank, tagShutdownAck, nil, 0)
}

// handleRescue answers a replica request.
func (w *worker) handleRescue(id int) {
	if entry, ok := w.local[id]; ok {
		w.comm.Send(w.coordRank, tagRescueReply, RescueReply{SM: entry.sm, Version: entry.version, OK: true}, 0)
	} else {
		w.comm.Send(w.coordRank, tagRescueReply, RescueReply{}, 0)
	}
}

// runWStep is the paper's asynchronous W-step loop: "extract a submodel from
// the queue, process it (except in epoch e+1) and send it to the machine's
// successor" (§4.1). It returns true when the machine was shut down
// mid-step.
func (w *worker) runWStep(cfg WStartMsg) bool {
	w.m = cfg.M
	w.replicas = cfg.Replicas
	w.hops, w.bytes = 0, 0
	w.traces = make(map[int]TraceEntry)
	if !w.shared {
		// This worker owns its Problem instance, so per-iteration state (the
		// μ schedule, SGD re-tuning) must advance here; in the shared shape
		// the coordinator already did it.
		if hook, ok := w.prob.(IterationHook); ok {
			hook.OnIterationStart(cfg.Iter)
		}
	}
	shard := w.prob.Shard(w.shard)
	for {
		msg, ok := w.recv()
		if !ok {
			return true
		}
		switch msg.Tag {
		case tagToken:
			w.processToken(msg.Payload.(*Token), shard, cfg)
		case tagRescue:
			w.handleRescue(msg.Payload.(int))
		case tagRanksDead:
			w.mergeDeadRanks(msg.Payload.(DeadRanksMsg))
		case tagProbe:
			w.sendProbeReply()
		case tagWDone:
			w.comm.Send(w.coordRank, tagWAck,
				WAckMsg{Entries: w.inventory(), Hops: w.hops, Bytes: w.bytes}, 0)
			return false
		case tagShutdown:
			w.ackShutdown()
			return true
		default:
			panic(fmt.Sprintf("core: machine %d got tag %d during W step", w.rank, msg.Tag))
		}
	}
}

func (w *worker) processToken(tok *Token, shard Shard, cfg WStartMsg) {
	if tok.Step < tok.Train {
		for pass := 0; pass < cfg.Within; pass++ {
			order := trainOrder(shard.NumPoints(), cfg.Shuffle, w.rng)
			tok.SM.TrainOn(shard, order)
		}
		tok.Version++
	}
	tok.Step++
	w.record(tok)
	// Forward along the itinerary, skipping positions held by machines known
	// to be dead (DeadRanksMsg from the coordinator, peer-down events from
	// the transport) — the same next-alive-position rule the coordinator
	// applies when rerouting. A token forwarded to a machine whose death
	// this one has not heard of yet is dropped by the transport and
	// reconstructed by the coordinator's probe sweep.
	next := tok.Step
	for next < len(tok.Route) && w.isDeadRank(tok.Route[next]) {
		next++
	}
	tok.Step = next
	if next < len(tok.Route) {
		w.traces[tok.ID] = TraceEntry{ID: tok.ID, Step: next, To: tok.Route[next], Version: tok.Version}
		w.hops++
		w.bytes += int64(tok.SM.Bytes())
		w.comm.Send(tok.Route[next], tagToken, tok, tok.SM.Bytes())
		return
	}
	w.traces[tok.ID] = TraceEntry{ID: tok.ID, Step: len(tok.Route), To: w.coordRank, Version: tok.Version}
	w.comm.Send(w.coordRank, tagFinished, tok, 0)
}

// record stores this machine's copy of the submodel. In the distributed
// shape the decoded token is already a private copy, so it doubles as the
// fault-tolerance replica; in the shared shape a deep clone is taken when
// replicas are on, and a shared pointer (version -1: always current) is kept
// otherwise.
func (w *worker) record(tok *Token) {
	switch {
	case !w.shared:
		w.local[tok.ID] = localEntry{sm: tok.SM, version: tok.Version}
	case w.replicas:
		w.local[tok.ID] = localEntry{sm: tok.SM.Clone(), version: tok.Version}
	default:
		w.local[tok.ID] = localEntry{sm: tok.SM, version: -1}
	}
}

func (w *worker) inventory() []AckEntry {
	out := make([]AckEntry, 0, len(w.local))
	for id, entry := range w.local {
		out = append(out, AckEntry{ID: id, Version: entry.version})
	}
	return out
}

func (w *worker) runZStep() {
	model := make([]Submodel, w.m)
	for id := range model {
		entry, ok := w.local[id]
		if !ok {
			panic(fmt.Sprintf("core: machine %d missing submodel %d at Z step", w.rank, id))
		}
		model[id] = entry.sm
	}
	changed := w.prob.ZStep(w.shard, model)
	w.comm.Send(w.coordRank, tagZDone, ZDoneMsg{Changed: changed}, 0)
}

// trainOrder mirrors sgd.Order without importing it (the engine stays
// decoupled from the trainers).
func trainOrder(n int, shuffle bool, rng *rand.Rand) []int {
	if !shuffle {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return rng.Perm(n)
}
