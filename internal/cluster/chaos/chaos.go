// Package chaos is a fault-injecting transport wrapper for internal/cluster.
// It interposes on another fabric's raw endpoints and injects seeded,
// reproducible faults — message delay, duplicate delivery (back-to-back, so
// per-sender FIFO order is preserved), and rank kills at configurable
// protocol points (the Nth send of a given tag, scheduled up front or armed
// mid-run with Arm) or on demand via Kill. With
// zero fault probabilities it is a transparent proxy, which is exactly how
// it registers in the transport registry ("chaos", over inproc): the
// cross-backend conformance suite then holds the wrapper to the same
// delivery contract as every real backend.
//
// Faults are deterministic: each endpoint draws from its own rand.Rand
// seeded from Options.Seed and the rank, so a given (seed, schedule) replays
// identically — the property that makes chaos failures debuggable.
package chaos

import (
	"fmt"
	"math/rand"
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
// so a spec with AnyTag that is in place when the W step opens (scheduled at
// construction for iteration 0, or armed between iterations) kills the rank
// at its (AfterSends+1)-th token forward.
type KillSpec struct {
	Rank       int
	Tag        int // AnyTag or a specific application tag
	AfterSends int // die before send number AfterSends (0-based count)
}

// Options configures the injected faults. The zero value (plus a Seed)
// injects nothing.
type Options struct {
	// Seed drives every random draw; each rank derives its own stream.
	Seed int64
	// DelayProb is the per-message probability of an extra delivery delay,
	// uniform in (0, MaxDelay]. Delays happen in Deliver, so per-sender FIFO
	// order is preserved.
	DelayProb float64
	MaxDelay  time.Duration
	// DupProb is the per-message probability of an immediate duplicate
	// delivery (same payload, back-to-back, FIFO-compatible).
	DupProb float64
	// Kills schedules unannounced deaths at protocol points.
	Kills []KillSpec
}

// Fabric wraps an inner fabric's endpoints with fault injection. It
// implements cluster.Fabric, cluster.Killer and cluster.EndpointFabric.
type Fabric struct {
	inner cluster.Fabric
	eps   []*endpoint
	comms []*cluster.Comm
}

// New wraps inner (which must expose its raw endpoints via
// cluster.EndpointFabric) in a chaos fabric.
func New(inner cluster.Fabric, o Options) (*Fabric, error) {
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
		ep := &endpoint{
			inner: ef.Endpoint(r),
			opts:  o,
			rng:   rand.New(rand.NewSource(o.Seed ^ int64(r+1)*0x9e3779b97f4a7c)),
		}
		f.eps[r] = ep
		f.comms[r] = cluster.NewComm(ep)
	}
	for _, k := range o.Kills {
		f.Arm(k)
	}
	return f, nil
}

// Arm schedules one more kill while the fabric is in use; the spec's send
// count starts now. It may be called from any goroutine — typically between
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

// Kill severs rank unannounced right now (cluster.Killer).
func (f *Fabric) Kill(rank int) {
	if k, ok := f.inner.(cluster.Killer); ok {
		k.Kill(rank)
		return
	}
	f.eps[rank].inner.Abort()
}

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
	opts  Options
	rng   *rand.Rand

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

// Deliver injects the configured faults around the inner delivery. Like the
// Comm above it, an endpoint is driven by a single goroutine, so the rng
// needs no locking.
func (e *endpoint) Deliver(to int, m cluster.Message) {
	if e.killedBy(m) {
		// Die before the send: the message is lost with the process.
		e.inner.Abort()
		return
	}
	if e.opts.DelayProb > 0 && e.rng.Float64() < e.opts.DelayProb && e.opts.MaxDelay > 0 {
		time.Sleep(time.Duration(1 + e.rng.Int63n(int64(e.opts.MaxDelay))))
	}
	e.inner.Deliver(to, m)
	if e.opts.DupProb > 0 && e.rng.Float64() < e.opts.DupProb {
		e.inner.Deliver(to, m)
	}
}

func (e *endpoint) Next(timeout time.Duration) (cluster.Message, error) {
	return e.inner.Next(timeout)
}

func (e *endpoint) TryNext() (cluster.Message, bool) { return e.inner.TryNext() }

func (e *endpoint) Abort() { e.inner.Abort() }

func (e *endpoint) Close() error { return e.inner.Close() }

func init() {
	// Registered with zero faults: the conformance suite proves the wrapper
	// is a transparent proxy before any chaos is dialled in.
	cluster.RegisterTransport("chaos", func(p int, opts ...cluster.Option) (cluster.Fabric, error) {
		inner, err := cluster.NewFabric("inproc", p, opts...)
		if err != nil {
			return nil, err
		}
		return New(inner, Options{Seed: 1})
	})
}
