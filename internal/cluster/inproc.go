package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The in-process transport backend: every rank is a goroutine in one
// process, inboxes are buffered Go channels. This is the zero-overhead
// fabric the paper's single-host experiments run on. An endpoint's Abort
// simulates unannounced process death for fault tests — the killed rank's
// receives fail, frames to it are dropped and counted, and every other rank
// observes a PeerDownMessage.

// DefaultInboxCapacity bounds in-flight messages per rank unless overridden
// with WithInboxCapacity. ParMAC keeps at most M submodels + P final-round
// copies in flight, so this is generous.
const DefaultInboxCapacity = 1 << 14

// Network is the in-process fabric connecting P ranks.
type Network struct {
	size    int
	inboxes []chan Message
	comms   []*Comm
	eps     []*inprocEndpoint

	killMu   sync.Mutex
	killed   []atomic.Bool
	killedCh []chan struct{}
	dropped  atomic.Int64
}

// NewNetwork creates an in-process fabric with p ranks.
func NewNetwork(p int, opts ...Option) *Network {
	if p <= 0 {
		panic("cluster: need at least one rank")
	}
	o := ResolveOptions(opts...)
	n := &Network{
		size:     p,
		inboxes:  make([]chan Message, p),
		comms:    make([]*Comm, p),
		eps:      make([]*inprocEndpoint, p),
		killed:   make([]atomic.Bool, p),
		killedCh: make([]chan struct{}, p),
	}
	for i := range n.inboxes {
		n.inboxes[i] = make(chan Message, o.InboxCapacity)
		n.killedCh[i] = make(chan struct{})
		n.eps[i] = &inprocEndpoint{net: n, rank: i}
		n.comms[i] = NewComm(n.eps[i])
	}
	return n
}

// Size returns the number of ranks.
func (n *Network) Size() int { return n.size }

// Comm returns the communicator endpoint for the given rank. Each endpoint
// must be used by a single goroutine (as one MPI process would). Repeated
// calls return the same Comm.
func (n *Network) Comm(rank int) *Comm {
	if rank < 0 || rank >= n.size {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, n.size))
	}
	return n.comms[rank]
}

// Endpoint returns rank's raw transport endpoint (EndpointFabric).
func (n *Network) Endpoint(rank int) Endpoint { return n.eps[rank] }

// Stats returns the fabric-wide message and byte totals so far.
func (n *Network) Stats() Stats {
	var out Stats
	for _, c := range n.comms {
		s := c.Stats()
		out.Messages += s.Messages
		out.Bytes += s.Bytes
	}
	out.Dropped = n.dropped.Load()
	return out
}

// kill severs rank's attachment unannounced: its receives fail with a
// LinkError, deliveries to it are dropped and counted, and every other live
// rank gets a PeerDownMessage in its inbox. Idempotent.
func (n *Network) kill(rank int) {
	if rank < 0 || rank >= n.size {
		panic(fmt.Sprintf("cluster: kill of invalid rank %d", rank))
	}
	if !n.killed[rank].CompareAndSwap(false, true) {
		return
	}
	// killMu serializes the close with concurrent kill calls for other
	// ranks; the CAS above already makes each rank's close happen once.
	n.killMu.Lock()
	close(n.killedCh[rank])
	n.killMu.Unlock()
	down := PeerDownMessage(rank)
	for r := 0; r < n.size; r++ {
		if r == rank || n.killed[r].Load() {
			continue
		}
		select {
		case n.inboxes[r] <- down:
		case <-n.killedCh[r]:
		}
	}
}

// Close implements Fabric. The in-process fabric holds no external
// resources; goroutines blocked on Recv are the caller's to unblock.
func (n *Network) Close() error { return nil }

type inprocEndpoint struct {
	net  *Network
	rank int
}

func (e *inprocEndpoint) Rank() int { return e.rank }
func (e *inprocEndpoint) Size() int { return e.net.size }

func (e *inprocEndpoint) Deliver(to int, m Message) {
	if e.net.killed[to].Load() {
		e.net.dropped.Add(1)
		return
	}
	select {
	case e.net.inboxes[to] <- m:
	case <-e.net.killedCh[to]:
		e.net.dropped.Add(1)
	}
}

func (e *inprocEndpoint) Next(timeout time.Duration) (Message, error) {
	// A killed rank is dead memory: it reads nothing more, even if messages
	// are still queued.
	if e.net.killed[e.rank].Load() {
		return Message{}, e.linkErr()
	}
	select {
	case m := <-e.net.inboxes[e.rank]:
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
	case m := <-e.net.inboxes[e.rank]:
		return m, nil
	case <-e.net.killedCh[e.rank]:
		return Message{}, e.linkErr()
	case <-timerC:
		return Message{}, ErrRecvTimeout
	}
}

func (e *inprocEndpoint) linkErr() error {
	return &LinkError{Cause: fmt.Errorf("rank %d was killed", e.rank)}
}

func (e *inprocEndpoint) TryNext() (Message, bool) {
	if e.net.killed[e.rank].Load() {
		return Message{}, false
	}
	select {
	case m := <-e.net.inboxes[e.rank]:
		return m, true
	default:
		return Message{}, false
	}
}

// Abort simulates this rank's own unannounced death.
func (e *inprocEndpoint) Abort() { e.net.kill(e.rank) }

func (e *inprocEndpoint) Close() error { return nil }

func init() {
	RegisterTransport("inproc", func(p int, opts ...Option) (Fabric, error) {
		return NewNetwork(p, opts...), nil
	})
}
