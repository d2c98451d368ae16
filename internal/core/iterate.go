package core

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
)

// wState is the coordinator's view of one W step: which tokens finished at
// which version, the itineraries, the last send the coordinator itself made
// per token (the coordinator's own trace entry for the probe sweep), and the
// iteration's counters.
type wState struct {
	res      IterationResult
	routes   [][]int
	train    int
	final    []int
	done     []bool
	finished int
	sent     []coordSend
}

// coordSend remembers the coordinator's last forward of a token: where it
// went and what state it carried. If the token is lost before any machine
// processes it again, this is both the trace and the recovery source. sm is
// the coordinator's own copy, never the object it sent.
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
	e.coordHops, e.coordBytes = 0, 0

	// Deaths observed between iterations (e.g. a machine SIGKILLed after its
	// Z ack) must be known before routes are built.
	for _, r := range e.coord.PollDown() {
		e.markDead(r)
	}

	aliveList := e.AliveRanks()
	p := len(aliveList)
	if p == 0 {
		panic("core: no machines alive")
	}
	trainVisits := e.cfg.Epochs * p
	m := len(e.submodels)
	st := &wState{
		res:    IterationResult{Iter: e.iter},
		routes: e.buildRoutes(aliveList, trainVisits),
		train:  trainVisits,
		final:  make([]int, m),
		done:   make([]bool, m),
		sent:   make([]coordSend, m),
	}

	// Start the W step on all alive machines.
	for _, r := range aliveList {
		e.coord.Send(r, tagWStart, WStartMsg{Iter: e.iter, Train: trainVisits, Shuffle: e.cfg.Shuffle, M: m}, 0)
	}
	// Inject the initial tokens at their home machines. Each carries a
	// clone: the coordinator keeps the pre-iteration model until the tokens
	// come back.
	for i, sm := range e.submodels {
		tok := &Token{SM: sm.Clone(), ID: i, Version: e.versions[i], Route: st.routes[i],
			Train: trainVisits, Incarnation: e.incarnation[i]}
		// Placement is free: submodel i starts resident at its home machine.
		st.sent[i] = coordSend{valid: true, step: 0, to: tok.Route[0], version: tok.Version, sm: sm}
		e.coord.Send(tok.Route[0], tagToken, tok, 0)
	}

	e.supervise(st)
	copy(e.versions, st.final)

	e.drainWAcks(st)
	// tagZGo is never re-sent — ZStep is not idempotent — so a machine that
	// dies here just loses its shard's update for this iteration. Replies are
	// kept by rank and summed in rank order, not arrival order, so the curve
	// has the same bits on every fabric; a rank that did not answer adds 0.
	zdone := make([]ZDoneMsg, len(e.occupied))
	e.await(st, e.AliveRanks(), tagZGo, nil, tagZDone, func(msg cluster.Message) {
		zdone[msg.From] = msg.Payload.(ZDoneMsg)
	})
	for _, z := range zdone {
		st.res.ZChanged += z.Changed
		st.res.EQ += z.EQ
		st.res.EBA += z.EBA
	}

	res := st.res
	res.Failures, e.failures = e.failures, nil
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
// peer-down events into death handling and re-probing after silence whenever
// failures have already happened. No wait here is unbounded once a failure
// is in play. A death a replica request observed is marked only after the
// sweep that made the request, and before the drain, which would otherwise
// wait out its patience on a rank already known dead.
func (e *Engine) supervise(st *wState) {
	e.resweep = false
	for st.finished < len(e.submodels) {
		if e.resweep {
			e.resweep = false
			e.sweep(st)
			continue
		}
		if len(e.pendingDowns) > 0 {
			e.markDead(e.pendingDowns[0])
			e.pendingDowns = e.pendingDowns[1:]
			continue
		}
		msg, err := e.coord.RecvEvent(cluster.AnySource, cluster.AnyTag, e.cfg.RescueTimeout)
		var pd *cluster.PeerDownError
		switch {
		case err == nil:
			e.superviseMsg(msg, st)
		case errors.As(err, &pd):
			e.markDead(pd.Rank)
		case errors.Is(err, cluster.ErrRecvTimeout):
			// Healthy-but-slow iterations just keep waiting; once any machine
			// has died, silence means a token may be lost — re-probe.
			e.resweep = len(e.failures) > 0
		default:
			panic(fmt.Sprintf("core: coordinator lost its fabric: %v", err))
		}
	}
	for _, r := range e.pendingDowns {
		e.markDead(r)
	}
	e.pendingDowns = nil
}

// await sends tag (with payload) to every rank in ranks and collects one
// reply-tagged message from each, handing it to onReply. The first wait lasts
// RescueTimeout and each of the rescueRetries retries doubles it; a rank
// reported down, or still silent after the last retry, is marked dead.
// Other messages go to superviseMsg while an iteration is open (st non-nil),
// so tokens keep finishing while a phase collects; between iterations they
// are stale and dropped.
func (e *Engine) await(st *wState, ranks []int, tag int, payload any, reply int, onReply func(cluster.Message)) {
	expect := make(map[int]bool, len(ranks))
	for _, r := range ranks {
		e.coord.Send(r, tag, payload, 0)
		expect[r] = true
	}
	wait, retries := e.cfg.RescueTimeout, rescueRetries
	for len(expect) > 0 {
		msg, err := e.coord.RecvEvent(cluster.AnySource, cluster.AnyTag, wait)
		var pd *cluster.PeerDownError
		switch {
		case err == nil && msg.Tag == reply && expect[msg.From]:
			delete(expect, msg.From)
			onReply(msg)
		case err == nil:
			if st != nil {
				e.superviseMsg(msg, st)
			}
		case errors.As(err, &pd):
			e.markDead(pd.Rank)
			delete(expect, pd.Rank)
		case !errors.Is(err, cluster.ErrRecvTimeout):
			panic(fmt.Sprintf("core: coordinator lost its fabric: %v", err))
		case retries > 0:
			retries--
			wait *= 2
		default:
			// Patience exhausted: the silent machines are dead.
			for r := range expect {
				e.markDead(r)
				delete(expect, r)
			}
		}
	}
}

// superviseMsg dispatches one message during an iteration that is not a
// reply the coordinator is waiting for: from supervise, or from await while a
// phase collects.
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
	case tagProbeReply, tagRescueReply, tagWAck, tagZDone, tagShutdownAck:
		// A late reply to an abandoned wait (possibly from a machine declared
		// dead for silence); already accounted for.
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

// drainWAcks closes the W step: every live machine reports its local model
// inventory and traffic counters, and stale or missing copies are repaired
// so the Z step sees the full model.
func (e *Engine) drainWAcks(st *wState) {
	e.await(st, e.AliveRanks(), tagWDone, nil, tagWAck, func(msg cluster.Message) {
		ack := msg.Payload.(WAckMsg)
		st.res.ModelMessages += ack.Hops
		st.res.ModelBytes += ack.Bytes
		have := make(map[int]int, len(ack.Entries))
		for _, en := range ack.Entries {
			have[en.ID] = en.Version
		}
		for id, sm := range e.submodels {
			if v, ok := have[id]; ok && v == st.final[id] {
				continue
			}
			e.coord.Send(msg.From, tagFix, FixMsg{ID: id, SM: sm.Clone()}, sm.Bytes())
			e.coordBytes += int64(sm.Bytes())
			st.res.FixMessages++
		}
	})
}

// forwardFromCoord advances tok.Step to the next alive itinerary position and
// sends the token there, recording the send, with a clone of the submodel it
// carried, as the coordinator's trace entry for the probe sweep. It reports
// false when no alive position remains (the token is finished).
func (e *Engine) forwardFromCoord(tok *Token, st *wState) bool {
	for pos := tok.Step; pos < len(tok.Route); pos++ {
		if e.alive[tok.Route[pos]] {
			tok.Step = pos
			e.coordHops++
			e.coordBytes += int64(tok.SM.Bytes())
			st.sent[tok.ID] = coordSend{valid: true, step: pos, to: tok.Route[pos], version: tok.Version, sm: tok.SM.Clone()}
			e.coord.Send(tok.Route[pos], tagToken, tok, tok.SM.Bytes())
			return true
		}
	}
	return false
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
