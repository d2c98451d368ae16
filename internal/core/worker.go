package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sgd"
)

// The machine side of the ParMAC protocol. A worker runs on a Problem of its
// own and talks only through its communicator, so one loop serves every
// machine: a goroutine on any fabric (New, NewOn and AddMachine launch
// these) or a worker launched elsewhere for NewDistributed, such as an OS
// process over TCP (cmd/parmac-train -worker).
//
// It shares no submodel with anyone: what it sends is a Clone of what it
// keeps, so the same ownership holds whether the fabric passes pointers or
// bytes.

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Seed drives the machine-local shuffling RNG. Use WorkerSeed so every
	// deployment shape derives the same per-rank stream.
	Seed int64
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
	coordRank int
	rank      int
	local     map[int]localEntry
	deadRanks map[int]bool       // ranks known to have left the ring
	traces    map[int]TraceEntry // per token: last forward this machine made
	rng       *rand.Rand

	// per-iteration state, armed by WStartMsg; the counters are reported
	// and zeroed by the W step's ack
	cfg   WStartMsg
	hops  int64
	bytes int64
}

// recv is the worker's failure-aware receive. A machine's peer-down feeds
// the dead-rank set (so forwards reroute) and the wait continues; ok is
// false when the coordinator is down or this worker's own fabric attachment
// is gone, which is the worker's cue to exit quietly — never to panic.
func (w *worker) recv() (cluster.Message, bool) {
	for {
		msg, err := w.comm.RecvEvent(cluster.AnySource, cluster.AnyTag, -1)
		if err == nil {
			return msg, true
		}
		var pd *cluster.PeerDownError
		if !errors.As(err, &pd) || pd.Rank == w.coordRank {
			return cluster.Message{}, false
		}
		w.deadRanks[pd.Rank] = true
	}
}

// run is the machine's one message loop. Between a WStartMsg and the W step's
// closing WDone it is the paper's asynchronous W-step loop: "extract a
// submodel from the queue, process it (except in epoch e+1) and send it to
// the machine's successor" (§4.1). Outside the W step shard is nil.
func (w *worker) run() {
	var shard Shard
	for {
		msg, ok := w.recv()
		if !ok {
			return
		}
		switch msg.Tag {
		case tagWStart:
			shard = w.openWStep(msg.Payload.(WStartMsg))
		case tagToken:
			if shard == nil {
				// A token raced a shutdown/retire; bounce it to the coordinator.
				w.comm.Send(w.coordRank, tagBounced, msg.Payload, 0)
			} else {
				w.processToken(msg.Payload.(*Token), shard)
			}
		case tagWDone:
			// Closes the W step. A drain request after it closed (the
			// coordinator re-drained around a failure) re-acks the inventory
			// with the counters already reported, hence zero.
			w.comm.Send(w.coordRank, tagWAck,
				WAckMsg{Entries: w.inventory(), Hops: w.hops, Bytes: w.bytes}, 0)
			w.hops, w.bytes = 0, 0
			shard = nil
		case tagFix:
			fix := msg.Payload.(FixMsg)
			w.local[fix.ID] = localEntry{sm: fix.SM, version: -2}
		case tagZGo:
			w.runZStep()
		case tagRescue:
			w.handleRescue(msg.Payload.(int))
		case tagRanksDead:
			w.mergeDeadRanks(msg.Payload.(DeadRanksMsg))
		case tagProbe:
			w.sendProbeReply()
		case tagShutdown:
			// The worker's very last send: Retire waits for it before
			// releasing the rank, so a successor machine can never share
			// this worker's communicator.
			w.comm.Send(w.coordRank, tagShutdownAck, nil, 0)
			return
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

// handleRescue answers a replica request with a copy of the replica; the
// machine keeps its own.
func (w *worker) handleRescue(id int) {
	if entry, ok := w.local[id]; ok {
		w.comm.Send(w.coordRank, tagRescueReply, RescueReply{SM: entry.sm.Clone(), Version: entry.version, OK: true}, 0)
	} else {
		w.comm.Send(w.coordRank, tagRescueReply, RescueReply{}, 0)
	}
}

// openWStep arms the per-iteration state, advances the Problem's own
// per-iteration state if it has any (IterationHook), and returns the shard the
// W step trains on.
func (w *worker) openWStep(cfg WStartMsg) Shard {
	w.cfg = cfg
	w.traces = make(map[int]TraceEntry)
	if hook, ok := w.prob.(IterationHook); ok {
		hook.OnIterationStart(cfg.Iter)
	}
	return w.prob.Shard(w.shard)
}

func (w *worker) processToken(tok *Token, shard Shard) {
	if tok.Step < tok.Train {
		tok.SM.TrainOn(shard, sgd.Order(shard.NumPoints(), w.cfg.Shuffle, w.rng))
		tok.Version++
	}
	tok.Step++
	// The submodel this machine trained stays here as its replica, the copy
	// fault recovery restores from (§4.3); the token moves on with a clone.
	w.local[tok.ID] = localEntry{sm: tok.SM, version: tok.Version}
	tok.SM = tok.SM.Clone()
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

func (w *worker) inventory() []AckEntry {
	out := make([]AckEntry, 0, len(w.local))
	for id, entry := range w.local {
		out = append(out, AckEntry{ID: id, Version: entry.version})
	}
	return out
}

func (w *worker) runZStep() {
	model := make([]Submodel, w.cfg.M)
	for id := range model {
		entry, ok := w.local[id]
		if !ok {
			panic(fmt.Sprintf("core: machine %d missing submodel %d at Z step", w.rank, id))
		}
		model[id] = entry.sm
	}
	done := ZDoneMsg{Changed: w.prob.ZStep(w.shard, model)}
	if sh, ok := w.prob.Shard(w.shard).(ObjectiveShard); ok {
		done.EQ, done.EBA = sh.Objectives()
	}
	w.comm.Send(w.coordRank, tagZDone, done, 0)
}
