// Package tcp is the multi-process transport backend for internal/cluster:
// each rank runs in its own OS process and exchanges length-prefixed binary
// frames over TCP, payloads in the cluster wire codec (frame.go). A Hub
// plays the role of the cluster's rendezvous point and message router: every
// rank dials the hub, claims its rank with a hello frame naming its wire
// version, and blocks until all ranks have joined (the rendezvous phase); the
// hub then releases everyone and routes data frames between ranks — reading
// only their headers and forwarding their bytes untouched — with per-sender
// FIFO ordering, exactly the delivery contract the in-process backend
// provides. The conformance suite in internal/cluster holds both to it.
//
// Backpressure is physical: a rank that stops draining its inbox stops
// reading its socket, TCP flow control stalls the hub's writes to it, and
// senders eventually block in Deliver — the same bounded-buffering semantics
// as the in-process channel fabric.
package tcp

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// rendezvousTimeout bounds how long a dialling rank waits for the cluster to
// assemble before giving up.
const rendezvousTimeout = 60 * time.Second

// ---------------------------------------------------------------------------
// hub: rendezvous + router
// ---------------------------------------------------------------------------

// Hub is the rendezvous server and frame router for one cluster. Typically
// the coordinator process runs the Hub and dials its own rank over loopback,
// while worker processes dial from outside.
type Hub struct {
	ln   net.Listener
	size int

	mu      sync.Mutex
	peers   []*hubPeer // by rank; all non-nil once started
	joined  int
	gone    int
	allGone chan struct{} // closed once every rank has departed
	started bool
	closed  bool

	dropped atomic.Int64 // frames discarded because their destination left
}

type hubPeer struct {
	hub  *Hub
	rank int
	conn net.Conn
	br   *bufio.Reader

	wmu  sync.Mutex
	gone bool
	left bool // departure recorded by peerGone; guarded by hub.mu
}

// send writes one encoded frame to this peer, preserving the caller's order.
// Frames to a departed peer are dropped and counted (the rank said bye or
// its connection died).
func (p *hubPeer) send(raw []byte) {
	p.wmu.Lock()
	if p.gone {
		p.wmu.Unlock()
		p.hub.noteDrop(raw)
		return
	}
	if _, err := p.conn.Write(raw); err != nil {
		p.gone = true
		p.wmu.Unlock()
		p.conn.Close()
		p.hub.noteDrop(raw)
		// A write failure means the connection died under us — unannounced.
		p.hub.peerGone(p, false)
		return
	}
	p.wmu.Unlock()
}

// noteDrop counts an undeliverable application frame. Control frames (down
// notifications racing a second departure) are not traffic and stay out of
// the counter.
func (h *Hub) noteDrop(raw []byte) {
	if frameKind(raw[4]) == frameData {
		h.dropped.Add(1)
	}
}

// markGone retires this peer. graceful distinguishes a bye frame from a
// connection that died under us; only the latter is broadcast to the
// survivors as a peer-down event (unannounced death, paper §4.3).
func (p *hubPeer) markGone(graceful bool) {
	p.wmu.Lock()
	first := !p.gone
	p.gone = true
	p.wmu.Unlock()
	p.conn.Close()
	if first {
		p.hub.peerGone(p, graceful)
	}
}

// peerGone records a departure and, for unannounced ones after the cluster
// started, broadcasts frameDown to the surviving ranks. Called at most once
// per peer (guarded by p.gone).
func (h *Hub) peerGone(p *hubPeer, graceful bool) {
	h.mu.Lock()
	p.left = true
	h.gone++
	if h.gone == h.size && h.allGone != nil {
		close(h.allGone)
		h.allGone = nil
	}
	broadcast := !graceful && h.started && !h.closed
	var survivors []*hubPeer
	if broadcast {
		for _, q := range h.peers {
			if q != nil && q != p {
				survivors = append(survivors, q)
			}
		}
	}
	h.mu.Unlock()
	down := appendFrame(nil, &frame{Kind: frameDown, Rank: p.rank})
	for _, q := range survivors {
		q.send(down)
	}
}

// DroppedFrames returns how many frames the hub discarded because their
// destination rank had already departed.
func (h *Hub) DroppedFrames() int64 { return h.dropped.Load() }

// NewHub listens on addr (e.g. "127.0.0.1:0") for a cluster of size ranks
// and serves the rendezvous and routing protocol in the background.
func NewHub(addr string, size int) (*Hub, error) {
	if size <= 0 {
		return nil, fmt.Errorf("tcp: need at least one rank, got %d", size)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: hub listen: %w", err)
	}
	h := &Hub{ln: ln, size: size, peers: make([]*hubPeer, size), allGone: make(chan struct{})}
	go h.acceptLoop()
	return h, nil
}

// Wait blocks until every rank has departed (bye frame or connection loss),
// or the timeout elapses. A coordinator calls this between the protocol's
// end and Close, so shutdown messages still in the hub are routed before the
// fabric dies.
func (h *Hub) Wait(timeout time.Duration) error {
	h.mu.Lock()
	ch := h.allGone
	h.mu.Unlock()
	if ch == nil {
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-time.After(timeout):
	}
	switch ranks := h.attached(); len(ranks) {
	case 0:
		return nil
	case 1:
		return fmt.Errorf("tcp: rank %d still attached after %v", ranks[0], timeout)
	default:
		return fmt.Errorf("tcp: ranks %v still attached after %v", ranks, timeout)
	}
}

// attached lists the ranks whose departure the hub has not seen, including
// any that never joined.
func (h *Hub) attached() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var ranks []int
	for r, p := range h.peers {
		if p == nil || !p.left {
			ranks = append(ranks, r)
		}
	}
	return ranks
}

// Addr returns the hub's listen address, to hand to Dial/Connect.
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// Close tears the hub down: the listener and every peer connection are
// closed. In-flight frames may be lost; close the hub only after the ranks
// have finished their protocol.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	peers := append([]*hubPeer(nil), h.peers...)
	h.mu.Unlock()
	err := h.ln.Close()
	for _, p := range peers {
		if p != nil {
			p.markGone(true)
		}
	}
	return err
}

func (h *Hub) acceptLoop() {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go h.admit(conn)
	}
}

// admit performs the hub side of the rendezvous for one connection: read the
// hello, refuse a foreign wire version, claim the rank, and — once the
// cluster is complete — release every rank with a start frame and begin
// routing.
func (h *Hub) admit(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(rendezvousTimeout))
	p := &hubPeer{hub: h, conn: conn, br: bufio.NewReader(conn)}
	hello, err := readFrame(p.br)
	if err != nil || hello.Kind != frameHello {
		conn.Close()
		return
	}
	if hello.Version != wireVersion {
		writeFrame(conn, &frame{Kind: frameRefuse, Version: wireVersion})
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})

	h.mu.Lock()
	rank := hello.Rank
	if h.closed || rank < 0 || rank >= h.size || h.peers[rank] != nil {
		h.mu.Unlock()
		conn.Close()
		return
	}
	p.rank = rank
	h.peers[rank] = p
	h.joined++
	complete := h.joined == h.size && !h.started
	if complete {
		h.started = true
	}
	h.mu.Unlock()

	if complete {
		for r, peer := range h.peers {
			peer.send(appendFrame(nil, &frame{Kind: frameStart, Rank: r, Size: h.size}))
		}
	}
	h.servePeer(p, rank)
}

// servePeer is a peer's dedicated reader for its whole lifetime. Healthy
// ranks send nothing until the frameStart release, so a first-read failure
// before the cluster started means the rank died mid-rendezvous: unclaim it,
// so a restarted process can take the rank instead of the cluster wedging on
// a permanently-claimed slot. Once bytes flow, route frames until bye/EOF.
func (h *Hub) servePeer(p *hubPeer, rank int) {
	if _, err := p.br.Peek(1); err != nil {
		h.mu.Lock()
		if !h.started && h.peers[rank] == p {
			h.peers[rank] = nil
			h.joined--
			h.mu.Unlock()
			p.conn.Close()
			return
		}
		h.mu.Unlock()
		p.markGone(false)
		return
	}
	h.route(p)
}

// route forwards one peer's outgoing frames to their destinations, in order.
// A data frame is routed on its header and forwarded as the bytes read; the
// read buffer is reused because send has written them before it returns.
func (h *Hub) route(p *hubPeer) {
	var buf []byte
	for {
		raw, err := readRawFrame(p.br, buf)
		buf = raw
		var f frame
		if err == nil {
			f, err = parseFrame(raw)
		}
		if err != nil {
			p.markGone(false)
			return
		}
		switch f.Kind {
		case frameData:
			if f.To < 0 || f.To >= h.size {
				continue
			}
			h.mu.Lock()
			dst := h.peers[f.To]
			started := h.started
			h.mu.Unlock()
			if dst == nil || !started {
				h.noteDrop(raw) // unclaimed rank, or data jumped the rendezvous
				continue
			}
			dst.send(raw)
		case frameBye:
			p.markGone(true)
			return
		}
	}
}

// ---------------------------------------------------------------------------
// endpoint: one rank's side of the connection
// ---------------------------------------------------------------------------

// Endpoint is a rank's TCP attachment, implementing cluster.Endpoint.
type Endpoint struct {
	rank, size int
	conn       net.Conn

	wmu  sync.Mutex
	wbuf []byte // frame encode buffer, reused by every Deliver

	inbox  chan cluster.Message
	failed chan struct{} // closed when the read loop dies
	done   chan struct{} // closed by Close

	closeOnce sync.Once
	readErr   error
}

// Dial connects rank to the hub at addr and blocks until every rank has
// joined (the rendezvous phase), then returns the live endpoint. A hub
// speaking another wire version refuses the rank with an error naming both
// versions.
func Dial(addr string, rank int, opts ...cluster.Option) (*Endpoint, error) {
	return dial(addr, rank, wireVersion, opts...)
}

// dial is Dial claiming to speak the given wire version.
func dial(addr string, rank, version int, opts ...cluster.Option) (*Endpoint, error) {
	o := cluster.ResolveOptions(opts...)
	conn, err := net.DialTimeout("tcp", addr, rendezvousTimeout)
	if err != nil {
		return nil, fmt.Errorf("tcp: dial hub %s: %w", addr, err)
	}
	conn.SetDeadline(time.Now().Add(rendezvousTimeout))
	if err := writeFrame(conn, &frame{Kind: frameHello, Rank: rank, Version: version}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcp: hello: %w", err)
	}
	br := bufio.NewReader(conn)
	start, err := readFrame(br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcp: rendezvous (is the hub up and every rank joining?): %w", err)
	}
	if start.Kind == frameRefuse {
		conn.Close()
		return nil, fmt.Errorf("tcp: hub speaks wire v%d, this binary v%d", start.Version, version)
	}
	if start.Kind != frameStart || start.Rank != rank {
		conn.Close()
		return nil, fmt.Errorf("tcp: bad rendezvous release %+v for rank %d", start, rank)
	}
	conn.SetDeadline(time.Time{})
	ep := &Endpoint{
		rank: rank, size: start.Size, conn: conn,
		inbox:  make(chan cluster.Message, o.InboxCapacity),
		failed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go ep.readLoop(br)
	return ep, nil
}

// Connect is Dial wrapped in a communicator — the one-call entry point for a
// worker process.
func Connect(addr string, rank int, opts ...cluster.Option) (*cluster.Comm, error) {
	ep, err := Dial(addr, rank, opts...)
	if err != nil {
		return nil, err
	}
	return cluster.NewComm(ep), nil
}

// readLoop decodes each frame straight from one reused read buffer; decoded
// payloads never alias it.
func (ep *Endpoint) readLoop(br *bufio.Reader) {
	defer close(ep.failed)
	var buf []byte
	for {
		raw, err := readRawFrame(br, buf)
		buf = raw
		var f frame
		if err == nil {
			f, err = parseFrame(raw)
		}
		if err != nil {
			ep.readErr = err
			return
		}
		var m cluster.Message
		switch f.Kind {
		case frameData:
			payload, err := cluster.DecodePayload(f.Payload)
			if err != nil {
				ep.readErr = err
				return
			}
			m = cluster.Message{From: f.From, Tag: f.Tag, Payload: payload, Bytes: f.Bytes}
		case frameDown:
			// The hub saw f.Rank's connection drop unannounced. Surface it
			// in-band so FIFO order with the peer's final frames holds.
			m = cluster.PeerDownMessage(f.Rank)
		default:
			continue
		}
		select {
		case ep.inbox <- m:
		case <-ep.done:
			return
		}
	}
}

// Rank implements cluster.Endpoint.
func (ep *Endpoint) Rank() int { return ep.rank }

// Size implements cluster.Endpoint.
func (ep *Endpoint) Size() int { return ep.size }

// Deliver implements cluster.Endpoint: the message is encoded into the
// endpoint's reused frame buffer and written to the hub, which routes it to
// rank `to`. A write failure is NOT fatal: the connection is closed and the
// loss surfaces as a LinkError from Next, so a surviving worker never
// crashes because the hub (or its own link) died mid-send. A payload type
// with no wire codec is a programming error and panics.
func (ep *Endpoint) Deliver(to int, m cluster.Message) {
	ep.wmu.Lock()
	defer ep.wmu.Unlock()
	ep.wbuf = appendDataFrame(ep.wbuf[:0], to, m)
	if _, err := ep.conn.Write(ep.wbuf); err != nil {
		// Kill the socket; the read loop notices and closes ep.failed.
		ep.conn.Close()
	}
}

// Next implements cluster.Endpoint. Messages already delivered are drained
// before a dead connection is reported as a LinkError.
func (ep *Endpoint) Next(timeout time.Duration) (cluster.Message, error) {
	select {
	case m := <-ep.inbox:
		return m, nil
	default:
	}
	var timerC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timerC = t.C
	}
	select {
	case m := <-ep.inbox:
		return m, nil
	case <-timerC:
		return cluster.Message{}, cluster.ErrRecvTimeout
	case <-ep.failed:
		// One last drain: the read loop may have buffered messages before
		// dying.
		select {
		case m := <-ep.inbox:
			return m, nil
		default:
		}
		return cluster.Message{}, &cluster.LinkError{
			Cause: fmt.Errorf("tcp: rank %d: connection lost while receiving: %v", ep.rank, ep.readErr),
		}
	}
}

// Abort implements cluster.Endpoint: the connection is closed with no bye
// frame, so the hub treats this rank as unannounced death and broadcasts a
// peer-down event to the survivors.
func (ep *Endpoint) Abort() {
	ep.closeOnce.Do(func() {
		close(ep.done)
		ep.conn.Close()
	})
}

// TryNext implements cluster.Endpoint.
func (ep *Endpoint) TryNext() (cluster.Message, bool) {
	select {
	case m := <-ep.inbox:
		return m, true
	default:
		return cluster.Message{}, false
	}
}

// Close implements cluster.Endpoint: a bye frame tells the hub this rank is
// done (graceful shutdown), then the connection is closed.
func (ep *Endpoint) Close() error {
	ep.closeOnce.Do(func() {
		close(ep.done)
		ep.wmu.Lock()
		writeFrame(ep.conn, &frame{Kind: frameBye})
		ep.wmu.Unlock()
		ep.conn.Close()
	})
	return nil
}

var _ cluster.Endpoint = (*Endpoint)(nil)

// ---------------------------------------------------------------------------
// registered fabric (conformance entry point)
// ---------------------------------------------------------------------------

type fabric struct {
	hub   *Hub
	eps   []*Endpoint
	comms []*cluster.Comm
}

// NewLoopbackFabric assembles a complete p-rank cluster over loopback TCP in
// one process: a hub plus one dialled endpoint per rank. Every message still
// crosses real sockets and the full wire format; only process isolation is
// elided. It backs the "tcp" entry in the transport registry so the
// conformance suite exercises the wire path.
func NewLoopbackFabric(p int, opts ...cluster.Option) (cluster.Fabric, error) {
	hub, err := NewHub("127.0.0.1:0", p)
	if err != nil {
		return nil, err
	}
	eps := make([]*Endpoint, p)
	comms := make([]*cluster.Comm, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eps[r], errs[r] = Dial(hub.Addr(), r, opts...)
			if errs[r] == nil {
				comms[r] = cluster.NewComm(eps[r])
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			hub.Close()
			return nil, err
		}
	}
	return &fabric{hub: hub, eps: eps, comms: comms}, nil
}

func (f *fabric) Size() int { return len(f.comms) }

func (f *fabric) Comm(rank int) *cluster.Comm { return f.comms[rank] }

// Endpoint exposes rank's raw endpoint (cluster.EndpointFabric).
func (f *fabric) Endpoint(rank int) cluster.Endpoint { return f.eps[rank] }

func (f *fabric) Stats() cluster.Stats {
	var out cluster.Stats
	for _, c := range f.comms {
		s := c.Stats()
		out.Messages += s.Messages
		out.Bytes += s.Bytes
	}
	out.Dropped = f.hub.DroppedFrames()
	return out
}

func (f *fabric) Close() error {
	for _, c := range f.comms {
		c.Close()
	}
	return f.hub.Close()
}

func init() {
	cluster.RegisterTransport("tcp", NewLoopbackFabric)
}
