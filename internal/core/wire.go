package core

import "encoding/gob"

// The engine's protocol messages. Every type here crosses the fabric, so all
// fields are exported and the types are gob-registered: on the in-process
// backend they travel as pointers, on the TCP backend they are serialized
// into gob frames by the transport. Submodel values inside them serialize
// through the gob interface mechanism — each Problem's concrete submodel
// types register themselves and implement GobEncoder/GobDecoder (see
// binauto/wire.go, macnet/wire.go).

// Token is a circulating submodel together with its itinerary through the
// ring (§4.1): Route lists the machine rank per itinerary position, the
// first Train positions are training visits, the rest are the final
// copy-only round.
type Token struct {
	SM      Submodel
	ID      int
	Step    int // itinerary positions completed
	Version int // training visits completed
	Route   []int
	Train   int
	// Incarnation counts coordinator resurrections of this submodel after
	// machine deaths. A finished or bounced token whose incarnation is
	// stale is a surviving duplicate of a copy already given up on, and is
	// dropped. Old wire bytes decode with 0, matching never-resurrected.
	Incarnation int
}

// WStartMsg opens one iteration's W step on a machine.
type WStartMsg struct {
	Iter     int
	Train    int // training visit count e·P_alive
	Within   int
	Shuffle  bool
	Replicas bool
	M        int // total submodel count (for the machine's Z-step assembly)
}

// AckEntry reports one locally held submodel copy. Version -1 marks an
// aliased in-process pointer (always current), -2 a copy installed by a
// repair message.
type AckEntry struct {
	ID      int
	Version int
}

// WAckMsg is a machine's end-of-W-step report: its local model inventory
// plus the token traffic it generated, which the coordinator aggregates into
// IterationResult — no shared counters, so the accounting works across
// processes.
type WAckMsg struct {
	Entries []AckEntry
	Hops    int64
	Bytes   int64
}

// ZDoneMsg reports a completed shard-local Z step.
type ZDoneMsg struct{ Changed int }

// FixMsg repairs a stale or missing local submodel copy before the Z step.
type FixMsg struct {
	ID int
	SM Submodel
}

// RescueReply answers a coordinator's replica request during fault recovery
// (§4.3). OK is false when the machine holds no copy of the submodel.
type RescueReply struct {
	SM      Submodel
	Version int
	OK      bool
}

// DeadRanksMsg tells every surviving machine which ranks have left the ring
// mid-W-step, so token forwards skip them instead of sending into a dead
// inbox.
type DeadRanksMsg struct {
	Dead []int
}

// TraceEntry is one machine's record of the last thing it did with a token:
// after processing it, the machine sent the token toward itinerary position
// Step, to rank To, holding a local replica at Version. The coordinator's
// probe sweep aggregates these to reconstruct where each token was when a
// machine died — the replica inventory stands in for the report a dead
// machine cannot make (§4.3).
type TraceEntry struct {
	ID      int
	Step    int // itinerary position the token was sent toward
	To      int // rank it was sent to (the coordinator's rank if finished)
	Version int // version of this machine's replica of the submodel
}

// ProbeReply answers a coordinator liveness/trace probe with every token
// trace this machine holds for the current W step.
type ProbeReply struct {
	Entries []TraceEntry
}

func init() {
	gob.Register(&Token{})
	gob.Register(WStartMsg{})
	gob.Register(WAckMsg{})
	gob.Register(ZDoneMsg{})
	gob.Register(FixMsg{})
	gob.Register(RescueReply{})
	gob.Register(DeadRanksMsg{})
	gob.Register(ProbeReply{})
}
