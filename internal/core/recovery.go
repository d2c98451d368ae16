package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
)

// markDead flips rank to dead, records the failure, broadcasts the updated
// dead set to the survivors and asks the supervising loop for a new probe
// sweep. A rank already gone is ignored (duplicate signals are expected:
// transport event + patience exhaustion can both fire).
func (e *Engine) markDead(rank int) {
	if rank < 0 || rank >= len(e.alive) || !e.occupied[rank] || !e.alive[rank] {
		return
	}
	e.alive[rank] = false
	e.failures = append(e.failures, FailureEvent{Rank: rank, LostToken: -1, FromRank: -1})
	e.broadcastDead()
	e.resweep = true
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
		e.coord.Send(r, tagRanksDead, msg, 0)
	}
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
	collected := make(map[int][]traceCand)
	e.await(st, e.AliveRanks(), tagProbe, nil, tagProbeReply, func(msg cluster.Message) {
		for _, en := range msg.Payload.(ProbeReply).Entries {
			collected[en.ID] = append(collected[en.ID], traceCand{from: msg.From, entry: en})
		}
	})
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
	e.failures = append(e.failures, ev)
	if !e.forwardFromCoord(tok, st) {
		e.finishToken(tok, st)
	}
}

// requestReplica asks rank r for its replica of submodel id, with the same
// bounded patience as await. ok is false when r died or stayed silent past
// the last retry. The wait takes only r's reply, and any death it observes is
// queued on pendingDowns rather than marked: the supervising loop marks it
// once the sweep that asked is over, so no message is dispatched and no
// route changes in the middle of a resurrect.
func (e *Engine) requestReplica(r, id int) (RescueReply, bool) {
	if r < 0 || r >= len(e.alive) || !e.alive[r] || e.coord.Down(r) {
		return RescueReply{}, false
	}
	e.coord.Send(r, tagRescue, id, 0)
	wait := e.cfg.RescueTimeout
	for try := 0; ; try++ {
		msg, err := e.coord.RecvEvent(r, tagRescueReply, wait)
		var pd *cluster.PeerDownError
		switch {
		case err == nil:
			return msg.Payload.(RescueReply), true
		case errors.As(err, &pd):
			e.pendingDowns = append(e.pendingDowns, pd.Rank)
			if pd.Rank == r {
				return RescueReply{}, false
			}
		case !errors.Is(err, cluster.ErrRecvTimeout):
			panic(fmt.Sprintf("core: coordinator lost its fabric: %v", err))
		case try == rescueRetries:
			e.pendingDowns = append(e.pendingDowns, r)
			return RescueReply{}, false
		default:
			wait *= 2
		}
	}
}
