package tcp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
)

// Failure signaling over real sockets: a peer's connection dropping without
// a bye frame must become a frameDown broadcast to the survivors — never a
// panic in a survivor's receive path — and hub frames addressed to the
// departed rank are dropped and counted.

func TestConnectionLossBecomesPeerDown(t *testing.T) {
	fab, err := NewLoopbackFabric(3)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	// Rank 0 forwards a message, then its process "dies": the connection is
	// severed with no bye frame.
	fab.Comm(0).Send(2, 7, "forwarded", 0)
	fab.(cluster.EndpointFabric).Endpoint(0).Abort()

	// Per-sender FIFO: rank 2 sees the forward before the death.
	m, err := fab.Comm(2).RecvEvent(cluster.AnySource, cluster.AnyTag, 10*time.Second)
	if err != nil || m.Payload != "forwarded" {
		t.Fatalf("first event = %v %v", m, err)
	}
	var pd *cluster.PeerDownError
	if _, err := fab.Comm(2).RecvEvent(cluster.AnySource, cluster.AnyTag, 10*time.Second); !errors.As(err, &pd) || pd.Rank != 0 {
		t.Fatalf("second event = %v, want PeerDown(0)", err)
	}
	if _, err := fab.Comm(1).RecvEvent(cluster.AnySource, cluster.AnyTag, 10*time.Second); !errors.As(err, &pd) || pd.Rank != 0 {
		t.Fatalf("rank 1 event = %v, want PeerDown(0)", err)
	}
}

// TestSendToDepartedPeerNeverPanics pins the satellite fixes: a survivor
// sending to a dead rank must not crash (the old receive path panicked on
// connection loss) and the hub must count the frames it had to drop.
func TestSendToDepartedPeerNeverPanics(t *testing.T) {
	fab, err := NewLoopbackFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	fab.(cluster.EndpointFabric).Endpoint(1).Abort()
	var pd *cluster.PeerDownError
	if _, err := fab.Comm(0).RecvEvent(cluster.AnySource, cluster.AnyTag, 10*time.Second); !errors.As(err, &pd) || pd.Rank != 1 {
		t.Fatalf("death not observed: %v", err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		fab.Comm(0).Send(1, 3, i, 8) // must neither panic nor block
	}
	deadline := time.Now().Add(10 * time.Second)
	for fab.Stats().Dropped < n {
		if time.Now().After(deadline) {
			t.Fatalf("hub counted %d dropped frames, want %d", fab.Stats().Dropped, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The survivor must remain fully usable.
	fab.Comm(0).Send(0, 9, "self", 0)
	if m, err := fab.Comm(0).RecvEvent(0, 9, 10*time.Second); err != nil || m.Payload != "self" {
		t.Fatalf("survivor unusable after peer loss: %v %v", m, err)
	}
}

func TestHubDroppedFramesAccessor(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if hub.DroppedFrames() != 0 {
		t.Fatalf("fresh hub reports %d dropped frames", hub.DroppedFrames())
	}
}

// TestFrameDownRoundTrip extends the frame codec coverage to the failure
// kind introduced for unannounced death signaling.
func TestFrameDownRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &frame{Kind: frameDown, Rank: 4}); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != frameDown || got.Rank != 4 {
		t.Fatalf("frameDown round trip: %+v", got)
	}
}

// TestFrameDownGolden pins the frameDown encoding byte for byte, the same
// contract as TestFrameGolden.
func TestFrameDownGolden(t *testing.T) {
	checkFrameGolden(t, "down_frame.golden.hex", &frame{Kind: frameDown, Rank: 2})
}

// TestHubWaitNamesAttachedRanks: a shutdown that times out says which ranks
// never left, not only how many.
func TestHubWaitNamesAttachedRanks(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if err := hub.Wait(time.Millisecond); err == nil || err.Error() != "tcp: ranks [0 1 2] still attached after 1ms" {
		t.Fatalf("empty hub: Wait = %v", err)
	}
	comms := make([]*cluster.Comm, 3)
	errs := make(chan error, 3)
	for r := range comms {
		go func(r int) {
			var err error
			comms[r], err = Connect(hub.Addr(), r)
			errs <- err
		}(r)
	}
	for range comms {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	defer comms[1].Close()
	comms[0].Close()
	comms[2].Close()
	// The hub reads the byes asynchronously.
	const want = "tcp: rank 1 still attached after 10ms"
	deadline := time.Now().Add(10 * time.Second)
	for err := hub.Wait(10 * time.Millisecond); err == nil || err.Error() != want; err = hub.Wait(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("Wait = %v, want %q", err, want)
		}
	}
}
