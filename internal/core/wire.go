package core

import "repro/internal/cluster"

// The engine's protocol messages. Every type here crosses the fabric: on the
// in-process backend as Go values, on the TCP backend as bytes in the
// cluster wire codec — each type appends its own fixed little-endian layout
// (AppendWire, fields in declaration order) and registers a decoder under
// the kind below. Submodels inside them nest through the same registry: each
// Problem's concrete submodel types register their own codecs (see
// binauto/wire.go, macnet/wire.go).

// Wire kinds of the protocol messages (cluster reserves 16–31 for core).
const (
	wireToken uint16 = 16 + iota
	wireWStart
	wireWAck
	wireZDone
	wireFix
	wireRescueReply
	wireDeadRanks
	wireProbeReply
)

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
	// dropped.
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

// readSubmodel reads a Submodel carried as a nested payload; nil is accepted
// only where optional.
func readSubmodel(r *cluster.WireReader, optional bool) Submodel {
	v := r.Payload()
	sm, ok := v.(Submodel)
	if !ok && (v != nil || !optional) {
		r.Failf("core: wire: expected a submodel, got %T", v)
	}
	return sm
}

// AppendWire appends the token's wire body.
func (t *Token) AppendWire(b []byte) []byte {
	b = cluster.AppendPayload(b, t.SM)
	b = cluster.AppendInt(b, t.ID)
	b = cluster.AppendInt(b, t.Step)
	b = cluster.AppendInt(b, t.Version)
	b = cluster.AppendInts(b, t.Route)
	b = cluster.AppendInt(b, t.Train)
	return cluster.AppendInt(b, t.Incarnation)
}

func decodeToken(r *cluster.WireReader) any {
	return &Token{SM: readSubmodel(r, false), ID: r.Int(), Step: r.Int(), Version: r.Int(),
		Route: r.Ints(), Train: r.Int(), Incarnation: r.Int()}
}

// AppendWire appends the message's wire body.
func (m WStartMsg) AppendWire(b []byte) []byte {
	b = cluster.AppendInt(b, m.Iter)
	b = cluster.AppendInt(b, m.Train)
	b = cluster.AppendInt(b, m.Within)
	b = cluster.AppendBool(b, m.Shuffle)
	b = cluster.AppendBool(b, m.Replicas)
	return cluster.AppendInt(b, m.M)
}

func decodeWStart(r *cluster.WireReader) any {
	return WStartMsg{Iter: r.Int(), Train: r.Int(), Within: r.Int(),
		Shuffle: r.Bool(), Replicas: r.Bool(), M: r.Int()}
}

// AppendWire appends the message's wire body.
func (m WAckMsg) AppendWire(b []byte) []byte {
	b = cluster.AppendLen(b, len(m.Entries))
	for _, e := range m.Entries {
		b = cluster.AppendInt(b, e.ID)
		b = cluster.AppendInt(b, e.Version)
	}
	b = cluster.AppendInt(b, int(m.Hops))
	return cluster.AppendInt(b, int(m.Bytes))
}

func decodeWAck(r *cluster.WireReader) any {
	var m WAckMsg
	if n := r.Len(16); n > 0 {
		m.Entries = make([]AckEntry, n)
		for i := range m.Entries {
			m.Entries[i] = AckEntry{ID: r.Int(), Version: r.Int()}
		}
	}
	m.Hops, m.Bytes = int64(r.Int()), int64(r.Int())
	return m
}

// AppendWire appends the message's wire body.
func (m ZDoneMsg) AppendWire(b []byte) []byte { return cluster.AppendInt(b, m.Changed) }

func decodeZDone(r *cluster.WireReader) any { return ZDoneMsg{Changed: r.Int()} }

// AppendWire appends the message's wire body.
func (m FixMsg) AppendWire(b []byte) []byte {
	return cluster.AppendPayload(cluster.AppendInt(b, m.ID), m.SM)
}

func decodeFix(r *cluster.WireReader) any {
	return FixMsg{ID: r.Int(), SM: readSubmodel(r, false)}
}

// AppendWire appends the message's wire body.
func (m RescueReply) AppendWire(b []byte) []byte {
	b = cluster.AppendPayload(b, m.SM)
	b = cluster.AppendInt(b, m.Version)
	return cluster.AppendBool(b, m.OK)
}

func decodeRescueReply(r *cluster.WireReader) any {
	return RescueReply{SM: readSubmodel(r, true), Version: r.Int(), OK: r.Bool()}
}

// AppendWire appends the message's wire body.
func (m DeadRanksMsg) AppendWire(b []byte) []byte { return cluster.AppendInts(b, m.Dead) }

func decodeDeadRanks(r *cluster.WireReader) any { return DeadRanksMsg{Dead: r.Ints()} }

// AppendWire appends the message's wire body.
func (m ProbeReply) AppendWire(b []byte) []byte {
	b = cluster.AppendLen(b, len(m.Entries))
	for _, e := range m.Entries {
		b = cluster.AppendInt(b, e.ID)
		b = cluster.AppendInt(b, e.Step)
		b = cluster.AppendInt(b, e.To)
		b = cluster.AppendInt(b, e.Version)
	}
	return b
}

func decodeProbeReply(r *cluster.WireReader) any {
	var m ProbeReply
	if n := r.Len(32); n > 0 {
		m.Entries = make([]TraceEntry, n)
		for i := range m.Entries {
			m.Entries[i] = TraceEntry{ID: r.Int(), Step: r.Int(), To: r.Int(), Version: r.Int()}
		}
	}
	return m
}

func init() {
	cluster.RegisterWire(wireToken, &Token{}, decodeToken)
	cluster.RegisterWire(wireWStart, WStartMsg{}, decodeWStart)
	cluster.RegisterWire(wireWAck, WAckMsg{}, decodeWAck)
	cluster.RegisterWire(wireZDone, ZDoneMsg{}, decodeZDone)
	cluster.RegisterWire(wireFix, FixMsg{}, decodeFix)
	cluster.RegisterWire(wireRescueReply, RescueReply{}, decodeRescueReply)
	cluster.RegisterWire(wireDeadRanks, DeadRanksMsg{}, decodeDeadRanks)
	cluster.RegisterWire(wireProbeReply, ProbeReply{}, decodeProbeReply)
}
