// Package cluster is the message-passing fabric that replaces MPI in this
// reproduction (paper §7 and appendix B). Each "machine" is a rank with an
// inbox; sends are buffered and non-blocking like MPI_Bsend, receives block
// like MPI_Recv and support tag filtering and MPI_ANY_SOURCE/ANY_TAG
// wildcards. The ParMAC engine needs nothing more — ring hops and
// coordinator messages are all point-to-point — so the fabric has no barrier
// or collectives.
//
// The fabric is pluggable: a Comm implements all of the above generically on
// top of a raw transport Endpoint, so every backend — the in-process channel
// Network here, the multi-process TCP backend in cluster/tcp — shares one
// semantics, enforced by the cross-backend conformance suite
// (conformance_test.go).
//
// Message and byte counters make the communication volume observable, which
// is what the speedup analysis of §5 is about: ParMAC sends the entire model
// only e+1 times per iteration and never sends data or coordinates.
package cluster

import (
	"fmt"
	"math"
	"sync/atomic"
)

// AnyTag matches any non-internal message tag in Recv (MPI_ANY_TAG).
const AnyTag = -1

// AnySource matches any sender in RecvFrom (MPI_ANY_SOURCE).
const AnySource = -1

// internalTagCeil bounds the tags reserved for the fabric itself (the
// peer-down signal, failure.go). They live at the bottom of the tag space
// and are invisible to AnyTag wildcards, so they can never be confused with
// application traffic.
const internalTagCeil = math.MinInt + 16

func isInternalTag(tag int) bool { return tag < internalTagCeil }

// Message is a delivered payload with its envelope.
type Message struct {
	From    int
	Tag     int
	Payload any
	Bytes   int // accounted size of the payload
}

// Stats is a snapshot of communication counters.
type Stats struct {
	Messages int64
	Bytes    int64
	// Dropped counts frames the fabric discarded because their destination
	// had already left (dead rank, departed peer). Filled at fabric level;
	// a single Comm's snapshot reports 0.
	Dropped int64
}

// Comm is one rank's communicator: the transport endpoint plus a local queue
// of messages that were received but did not match the requested tag (MPI
// implementations do the same internally to honour tag matching). Each Comm
// must be used by a single goroutine (as one MPI process would).
type Comm struct {
	ep      Endpoint
	pending []Message

	// Peer-down bookkeeping (see failure.go): ranks whose unannounced death
	// this Comm has observed, and the not-yet-reported subset.
	down      map[int]bool
	downQueue []int

	sentMsgs  atomic.Int64
	sentBytes atomic.Int64
}

// NewComm wraps a transport endpoint in a communicator. Backends call this;
// application code obtains Comms from a Network, a Fabric or tcp.Connect.
func NewComm(ep Endpoint) *Comm { return &Comm{ep: ep} }

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.ep.Rank() }

// Size returns the fabric size.
func (c *Comm) Size() int { return c.ep.Size() }

// Close releases the underlying endpoint. Only call once the rank is done
// communicating; messages still in flight to this rank may be dropped.
func (c *Comm) Close() error { return c.ep.Close() }

// Stats returns how many messages and payload bytes this rank has sent.
func (c *Comm) Stats() Stats {
	return Stats{Messages: c.sentMsgs.Load(), Bytes: c.sentBytes.Load()}
}

// Send delivers payload to rank `to` with the given tag, accounting `bytes`
// toward the communication counters. Like MPI_Bsend it does not wait for the
// receiver; it only blocks if the destination inbox is full (bounded
// buffering).
func (c *Comm) Send(to, tag int, payload any, bytes int) {
	if to < 0 || to >= c.ep.Size() {
		panic(fmt.Sprintf("cluster: Send to invalid rank %d", to))
	}
	if isInternalTag(tag) {
		panic(fmt.Sprintf("cluster: tag %d is reserved", tag))
	}
	c.sentMsgs.Add(1)
	c.sentBytes.Add(int64(bytes))
	c.ep.Deliver(to, Message{From: c.ep.Rank(), Tag: tag, Payload: payload, Bytes: bytes})
}

// Recv blocks until a message with the given tag (or any, with AnyTag)
// arrives and returns it. Messages with other tags are queued for later
// Recv calls, preserving arrival order per tag.
func (c *Comm) Recv(tag int) Message { return c.RecvFrom(AnySource, tag) }

// RecvFrom is Recv restricted to a particular sender (AnySource for any).
//
// RecvFrom keeps the classic MPI blocking contract: it waits forever and
// panics if this rank's own fabric link dies. Peer-down events observed
// while waiting are recorded (see Down/PollDown) and skipped. Failure-aware
// code — anything that must survive a dead peer — uses RecvEvent instead.
func (c *Comm) RecvFrom(from, tag int) Message {
	if m, ok := c.takePending(from, tag); ok {
		return m
	}
	for {
		m := c.nextBlocking()
		if c.notePeerDown(m) {
			continue
		}
		if matches(m, from, tag) {
			return m
		}
		c.pending = append(c.pending, m)
	}
}

// nextBlocking pulls the next transport message with no deadline, panicking
// on link loss (the legacy Recv contract; RecvEvent surfaces it as an error).
func (c *Comm) nextBlocking() Message {
	m, err := c.ep.Next(-1)
	if err != nil {
		panic(fmt.Sprintf("cluster: rank %d: %v", c.ep.Rank(), err))
	}
	return m
}

func (c *Comm) takePending(from, tag int) (Message, bool) {
	for i, m := range c.pending {
		if matches(m, from, tag) {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return m, true
		}
	}
	return Message{}, false
}

func matches(m Message, from, tag int) bool {
	if tag == AnyTag {
		if isInternalTag(m.Tag) {
			return false
		}
	} else if m.Tag != tag {
		return false
	}
	return from == AnySource || m.From == from
}
