package cluster

import (
	"errors"
	"testing"
	"time"
)

// Failure-signaling semantics of the in-process transport: Abort severs a
// rank, survivors observe it as a PeerDownError from RecvEvent (after the
// dead rank's earlier sends, preserving per-sender FIFO), and frames
// addressed to the dead rank are dropped and counted, never delivered and
// never blocking.

func TestRecvEventTimeout(t *testing.T) {
	n := NewNetwork(2)
	start := time.Now()
	_, err := n.Comm(0).RecvEvent(AnySource, AnyTag, 30*time.Millisecond)
	if !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("err = %v, want ErrRecvTimeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout wait far exceeded the deadline")
	}
	// The comm must still work after a timeout.
	n.Comm(1).Send(0, 3, "late", 0)
	m, err := n.Comm(0).RecvEvent(1, 3, time.Second)
	if err != nil || m.Payload != "late" {
		t.Fatalf("recv after timeout: %v %v", m, err)
	}
}

func TestKillSurfacesPeerDownAfterFinalSends(t *testing.T) {
	n := NewNetwork(3)
	// Rank 0 sends its last words, then dies.
	n.Comm(0).Send(1, 7, "last", 0)
	n.Endpoint(0).Abort()

	c1 := n.Comm(1)
	// FIFO: the message outruns the death event.
	m, err := c1.RecvEvent(AnySource, AnyTag, time.Second)
	if err != nil || m.Payload != "last" {
		t.Fatalf("first event = %v %v, want the final message", m, err)
	}
	_, err = c1.RecvEvent(AnySource, AnyTag, time.Second)
	var pd *PeerDownError
	if !errors.As(err, &pd) || pd.Rank != 0 {
		t.Fatalf("second event = %v, want PeerDown(0)", err)
	}
	if !c1.Down(0) {
		t.Fatal("Down(0) = false after observing the peer-down event")
	}
	// Rank 2 got no message; it sees only the down event.
	_, err = n.Comm(2).RecvEvent(AnySource, AnyTag, time.Second)
	if !errors.As(err, &pd) || pd.Rank != 0 {
		t.Fatalf("rank 2 event = %v, want PeerDown(0)", err)
	}
}

func TestPeerDownReportedOncePerPeer(t *testing.T) {
	n := NewNetwork(2)
	n.Endpoint(1).Abort()
	c := n.Comm(0)
	var pd *PeerDownError
	if _, err := c.RecvEvent(AnySource, AnyTag, time.Second); !errors.As(err, &pd) {
		t.Fatalf("first wait: %v", err)
	}
	// Subsequent waits time out instead of replaying the down event.
	if _, err := c.RecvEvent(AnySource, AnyTag, 30*time.Millisecond); !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("second wait: %v, want ErrRecvTimeout", err)
	}
	if !c.Down(1) {
		t.Fatal("Down(1) lost the death")
	}
}

func TestPollDownDrainsPendingDeaths(t *testing.T) {
	n := NewNetwork(3)
	n.Endpoint(1).Abort()
	n.Endpoint(2).Abort()
	got := map[int]bool{}
	for _, r := range n.Comm(0).PollDown() {
		got[r] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("PollDown = %v, want ranks 1 and 2", got)
	}
	if len(n.Comm(0).PollDown()) != 0 {
		t.Fatal("PollDown replayed already-drained deaths")
	}
	if !n.Comm(0).Down(1) || !n.Comm(0).Down(2) {
		t.Fatal("Down map lost the deaths")
	}
}

func TestDeliverToKilledRankDropsAndCounts(t *testing.T) {
	n := NewNetwork(2)
	n.Endpoint(1).Abort()
	before := n.Stats().Dropped
	// Must neither panic nor block, even repeated.
	for i := 0; i < 3; i++ {
		n.Comm(0).Send(1, 5, i, 0)
	}
	if got := n.Stats().Dropped - before; got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
}

func TestKilledRankNextReturnsLinkError(t *testing.T) {
	n := NewNetwork(2)
	n.Endpoint(0).Abort()
	_, err := n.Comm(0).RecvEvent(AnySource, AnyTag, time.Second)
	if err == nil || errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("dead rank's own wait = %v, want a link error", err)
	}
	var le *LinkError
	if !errors.As(err, &le) {
		t.Fatalf("err = %T %v, want *LinkError", err, err)
	}
}

func TestAbortIsKill(t *testing.T) {
	n := NewNetwork(2)
	n.Comm(1).ep.Abort()
	var pd *PeerDownError
	if _, err := n.Comm(0).RecvEvent(AnySource, AnyTag, time.Second); !errors.As(err, &pd) || pd.Rank != 1 {
		t.Fatalf("after Abort: %v, want PeerDown(1)", err)
	}
}

func TestKillDuringBlockedDeliverUnblocksSender(t *testing.T) {
	n := NewNetwork(2, WithInboxCapacity(1))
	c0 := n.Comm(0)
	c0.Send(1, 1, "fills the inbox", 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c0.Send(1, 1, "blocked until the kill", 0)
	}()
	time.Sleep(20 * time.Millisecond) // let the send block on the full inbox
	n.Endpoint(1).Abort()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sender stayed blocked on a dead rank's full inbox")
	}
	if n.Stats().Dropped == 0 {
		t.Fatal("the unblocked send was not counted as dropped")
	}
}
