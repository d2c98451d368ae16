package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Failure signaling (paper §4.3): ParMAC tolerates machine death because a
// dead machine loses only the submodels it held. For that to work against
// *unannounced* death (SIGKILL, partition), the fabric itself must turn
// "this rank's connection dropped" into an event the survivors can observe,
// instead of a panic or an eternally blocked Recv. Backends synthesize a
// peer-down message on the reserved tagPeerDown tag and deliver it through
// the normal inbox, so per-sender FIFO guarantees a peer's final real
// messages are drained before its death is reported.

// tagPeerDown is the reserved internal tag backends use to signal that a
// rank left the fabric unannounced. It is invisible to AnyTag wildcards.
const tagPeerDown = math.MinInt + 2

// PeerDownMessage is the event a backend injects into surviving inboxes when
// rank's attachment drops without a goodbye. From identifies the dead rank.
func PeerDownMessage(rank int) Message {
	return Message{From: rank, Tag: tagPeerDown}
}

// ErrRecvTimeout is returned by RecvEvent when the deadline passes before a
// matching message (or failure event) arrives.
var ErrRecvTimeout = errors.New("cluster: receive deadline exceeded")

// PeerDownError reports that a peer dropped off the fabric unannounced. Each
// peer's death is reported at most once per Comm; use Down to re-query.
type PeerDownError struct{ Rank int }

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("cluster: rank %d is down", e.Rank)
}

// LinkError reports that this endpoint's own attachment to the fabric is
// gone (its connection broke, or the rank was killed). It is terminal: every
// subsequent receive fails the same way.
type LinkError struct{ Cause error }

func (e *LinkError) Error() string {
	return fmt.Sprintf("cluster: local fabric link lost: %v", e.Cause)
}

func (e *LinkError) Unwrap() error { return e.Cause }

// EndpointFabric is implemented by fabrics that expose their raw transport
// endpoints, so wrappers (the chaos fabric) can interpose on delivery and
// fault drills can kill a rank with Endpoint(rank).Abort(): the killed
// rank's receives fail with a LinkError, frames addressed to it are dropped
// (and counted in Stats.Dropped), and every surviving rank observes a
// PeerDownError.
type EndpointFabric interface {
	Endpoint(rank int) Endpoint
}

// Down reports whether rank's death has been observed by this Comm. It only
// reflects peer-down events already drained from the transport; it does not
// poll the network.
func (c *Comm) Down(rank int) bool { return c.down[rank] }

// PollDown drains any immediately available messages and returns the ranks
// whose deaths became known since the last call (each rank is reported
// exactly once across PollDown and RecvEvent). Non-matching application
// messages are queued as usual.
func (c *Comm) PollDown() []int {
	for {
		m, ok := c.ep.TryNext()
		if !ok {
			break
		}
		if !c.notePeerDown(m) {
			c.pending = append(c.pending, m)
		}
	}
	out := c.downQueue
	c.downQueue = nil
	return out
}

// RecvEvent is the failure-aware receive. It waits up to timeout (forever if
// timeout <= 0) for a message matching (from, tag) and returns one of:
//
//   - the matching message with a nil error;
//   - a *PeerDownError when a peer's unannounced death is observed
//     (each peer's death is reported at most once per Comm);
//   - ErrRecvTimeout when the deadline passes;
//   - a *LinkError when this endpoint's own attachment is gone.
//
// Non-matching application messages arriving meanwhile are queued for later
// receives, exactly as in RecvFrom.
func (c *Comm) RecvEvent(from, tag int, timeout time.Duration) (Message, error) {
	if m, ok := c.takePending(from, tag); ok {
		return m, nil
	}
	if len(c.downQueue) > 0 {
		return Message{}, c.popDown()
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		wait := time.Duration(-1)
		if timeout > 0 {
			wait = time.Until(deadline)
			if wait <= 0 {
				return Message{}, ErrRecvTimeout
			}
		}
		m, err := c.ep.Next(wait)
		if err != nil {
			if errors.Is(err, ErrRecvTimeout) {
				return Message{}, ErrRecvTimeout
			}
			var le *LinkError
			if !errors.As(err, &le) {
				err = &LinkError{Cause: err}
			}
			return Message{}, err
		}
		if c.notePeerDown(m) {
			return Message{}, c.popDown()
		}
		if matches(m, from, tag) {
			return m, nil
		}
		c.pending = append(c.pending, m)
	}
}

// notePeerDown records m if it is a peer-down event, returning true when the
// message was consumed (whether newly recorded or a duplicate).
func (c *Comm) notePeerDown(m Message) bool {
	if m.Tag != tagPeerDown {
		return false
	}
	if c.down == nil {
		c.down = make(map[int]bool)
	}
	if !c.down[m.From] {
		c.down[m.From] = true
		c.downQueue = append(c.downQueue, m.From)
	}
	return true
}

func (c *Comm) popDown() *PeerDownError {
	r := c.downQueue[0]
	c.downQueue = c.downQueue[1:]
	return &PeerDownError{Rank: r}
}
