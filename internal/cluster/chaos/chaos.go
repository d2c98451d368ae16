// Package chaos is a fault-injecting transport wrapper for internal/cluster.
// It interposes on another fabric's raw endpoints and kills ranks
// unannounced: at a protocol point armed with Arm (the Nth send of a given
// tag), or on demand via Endpoint(rank).Abort(). Unarmed it is a transparent
// proxy, which is exactly how it registers in the transport registry
// ("chaos", over inproc): the cross-backend conformance suite then holds the
// wrapper to the same delivery contract as every real backend.
//
// An armed kill fires at a count of the rank's own sends, so a given
// schedule dies at the same protocol point on every run — the property that
// makes chaos failures debuggable.
package chaos

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
)

// AnyTag makes a KillSpec count every send regardless of tag.
const AnyTag = cluster.AnyTag

// KillSpec kills a rank at a deterministic protocol point: the rank dies
// unannounced just before performing its (AfterSends+1)-th Deliver of a
// message matching Tag (AnyTag for all). The triggering message is lost with
// the process, like a SIGKILL between receiving and forwarding.
//
// Packages outside internal/core cannot name the engine's tags; for them
// AnyTag is exact during a healthy ParMAC W step: between WStartMsg and the
// end-of-step drain a worker sends nothing but token forwards and finishes,
// so a spec with AnyTag that is in place when the W step opens (armed before
// the engine starts, or between iterations) kills the rank at its
// (AfterSends+1)-th token forward.
type KillSpec struct {
	Rank       int
	Tag        int // AnyTag or a specific application tag
	AfterSends int // die before send number AfterSends (0-based count)
}

// Fabric wraps an inner fabric's endpoints with kill injection. It
// implements cluster.Fabric and cluster.EndpointFabric.
type Fabric struct {
	inner cluster.Fabric
	eps   []*endpoint
	comms []*cluster.Comm
}

// New wraps inner (which must expose its raw endpoints via
// cluster.EndpointFabric) in a chaos fabric with no kill armed.
func New(inner cluster.Fabric) (*Fabric, error) {
	ef, ok := inner.(cluster.EndpointFabric)
	if !ok {
		return nil, fmt.Errorf("chaos: inner fabric %T does not expose endpoints", inner)
	}
	f := &Fabric{
		inner: inner,
		eps:   make([]*endpoint, inner.Size()),
		comms: make([]*cluster.Comm, inner.Size()),
	}
	for r := 0; r < inner.Size(); r++ {
		f.eps[r] = &endpoint{inner: ef.Endpoint(r)}
		f.comms[r] = cluster.NewComm(f.eps[r])
	}
	return f, nil
}

// Arm schedules one more kill; the spec's send count starts now. Armed
// before the first send, it counts every send of the run. It may also be
// called from any goroutine while the fabric is in use — typically between
// two engine iterations, while the rank is parked in a receive — which is
// how a drill places a death in a later iteration.
func (f *Fabric) Arm(k KillSpec) {
	ep := f.eps[k.Rank]
	ep.mu.Lock()
	ep.kills = append(ep.kills, &killState{spec: k})
	ep.mu.Unlock()
}

// Size implements cluster.Fabric.
func (f *Fabric) Size() int { return f.inner.Size() }

// Comm implements cluster.Fabric.
func (f *Fabric) Comm(rank int) *cluster.Comm { return f.comms[rank] }

// Endpoint implements cluster.EndpointFabric.
func (f *Fabric) Endpoint(rank int) cluster.Endpoint { return f.eps[rank] }

// Stats implements cluster.Fabric: traffic is counted at this fabric's Comms
// (the inner Comms are unused); drops come from the inner transport.
func (f *Fabric) Stats() cluster.Stats {
	var out cluster.Stats
	for _, c := range f.comms {
		s := c.Stats()
		out.Messages += s.Messages
		out.Bytes += s.Bytes
	}
	out.Dropped = f.inner.Stats().Dropped
	return out
}

// Close implements cluster.Fabric.
func (f *Fabric) Close() error { return f.inner.Close() }

type killState struct {
	spec KillSpec
	sent int
}

type endpoint struct {
	inner cluster.Endpoint

	mu    sync.Mutex // guards kills: Arm runs on another goroutine
	kills []*killState
}

func (e *endpoint) Rank() int { return e.inner.Rank() }
func (e *endpoint) Size() int { return e.inner.Size() }

// killedBy counts m against every armed spec and reports whether one fires.
func (e *endpoint) killedBy(m cluster.Message) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, k := range e.kills {
		if k.spec.Tag != AnyTag && k.spec.Tag != m.Tag {
			continue
		}
		k.sent++
		if k.sent == k.spec.AfterSends+1 { // fires once: sent only grows
			return true
		}
	}
	return false
}

// Deliver passes m to the inner endpoint unless an armed kill fires first.
func (e *endpoint) Deliver(to int, m cluster.Message) {
	if e.killedBy(m) {
		// Die before the send: the message is lost with the process.
		e.inner.Abort()
		return
	}
	e.inner.Deliver(to, m)
}

func (e *endpoint) Next(timeout time.Duration) (cluster.Message, error) {
	return e.inner.Next(timeout)
}

func (e *endpoint) TryNext() (cluster.Message, bool) { return e.inner.TryNext() }

func (e *endpoint) Abort() { e.inner.Abort() }

func (e *endpoint) Close() error { return e.inner.Close() }

func init() {
	// Registered with no kill armed: the conformance suite proves the
	// wrapper is a transparent proxy before any kill is armed.
	cluster.RegisterTransport("chaos", func(p int, opts ...cluster.Option) (cluster.Fabric, error) {
		inner, err := cluster.NewFabric("inproc", p, opts...)
		if err != nil {
			return nil, err
		}
		return New(inner)
	})
}
