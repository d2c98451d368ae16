package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Endpoint is one rank's raw attachment to a transport backend. It moves
// Messages between ranks with reliable, per-sender-FIFO delivery and bounded
// buffering; everything MPI-flavoured (tag matching, wildcards, traffic
// accounting, peer-down bookkeeping) lives above it in Comm and is therefore
// identical across backends.
//
// An Endpoint is used by a single goroutine, like one MPI process.
type Endpoint interface {
	// Rank is this endpoint's rank in [0, Size).
	Rank() int
	// Size is the number of ranks in the fabric.
	Size() int
	// Deliver enqueues m at rank to. It may block when the destination's
	// inbox is full (bounded buffering, like MPI_Bsend with a full buffer).
	// Delivery to a rank that has left the fabric is a silent drop, counted
	// in the fabric's Stats.Dropped — never a panic.
	Deliver(to int, m Message)
	// Next returns the next arrived message. A timeout > 0 bounds the wait
	// and ErrRecvTimeout reports its expiry; timeout <= 0 blocks until a
	// message arrives. Any other error means this endpoint's own attachment
	// is dead (terminal; subsequent calls keep failing). Backends surface a
	// peer's unannounced death in-band as a PeerDownMessage.
	Next(timeout time.Duration) (Message, error)
	// TryNext returns an already-arrived message, if any, without blocking.
	TryNext() (Message, bool)
	// Abort severs the endpoint without the goodbye of Close: peers observe
	// an unannounced death (PeerDownMessage). Idempotent; used by failure
	// injection to simulate process death.
	Abort()
	// Close releases the endpoint. Calling Next/Deliver afterwards is a bug.
	Close() error
}

// Fabric is a connected set of ranks on one transport backend, as handed out
// by the transport registry. Production code usually builds backends
// directly (NewNetwork, tcp.NewHub + tcp.Connect); the registry exists so the
// conformance suite can run the identical scenario table against every
// backend.
type Fabric interface {
	// Size is the number of ranks.
	Size() int
	// Comm returns rank's communicator. Each Comm is single-goroutine.
	Comm(rank int) *Comm
	// Stats aggregates the send counters of every local Comm.
	Stats() Stats
	// Close tears the fabric down. Only call once every rank is quiescent.
	Close() error
}

// Option configures a fabric at construction time.
type Option func(*Options)

// Options holds the resolved fabric construction options.
type Options struct {
	// InboxCapacity bounds in-flight messages per rank.
	InboxCapacity int
}

// WithInboxCapacity bounds the number of in-flight messages per rank. Sends
// beyond the bound block until the receiver drains its inbox (backpressure).
func WithInboxCapacity(n int) Option {
	if n <= 0 {
		panic("cluster: inbox capacity must be positive")
	}
	return func(o *Options) { o.InboxCapacity = n }
}

// ResolveOptions applies opts over the defaults.
func ResolveOptions(opts ...Option) Options {
	o := Options{InboxCapacity: DefaultInboxCapacity}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// FabricFactory builds a connected fabric of p ranks.
type FabricFactory func(p int, opts ...Option) (Fabric, error)

var (
	transportsMu sync.Mutex
	transports   = map[string]FabricFactory{}
)

// RegisterTransport records a transport backend under name. Backends
// register themselves in init(); registering a duplicate name panics.
// Every registered backend is exercised by the conformance suite.
func RegisterTransport(name string, f FabricFactory) {
	transportsMu.Lock()
	defer transportsMu.Unlock()
	if _, dup := transports[name]; dup {
		panic(fmt.Sprintf("cluster: transport %q registered twice", name))
	}
	transports[name] = f
}

// TransportNames lists the registered backends, sorted.
func TransportNames() []string {
	transportsMu.Lock()
	defer transportsMu.Unlock()
	out := make([]string, 0, len(transports))
	for name := range transports {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewFabric builds a fabric of p ranks on the named transport.
func NewFabric(name string, p int, opts ...Option) (Fabric, error) {
	transportsMu.Lock()
	f, ok := transports[name]
	transportsMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cluster: unknown transport %q (have %v)", name, TransportNames())
	}
	return f(p, opts...)
}
