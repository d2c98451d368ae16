package chaos_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
)

func newChaos(t *testing.T, p int) *chaos.Fabric {
	t.Helper()
	fab, err := chaos.New(cluster.NewNetwork(p))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fab.Close() })
	return fab
}

func TestRegisteredTransportIsTransparent(t *testing.T) {
	fab, err := cluster.NewFabric("chaos", 2)
	if err != nil {
		t.Fatalf("chaos transport not registered: %v", err)
	}
	defer fab.Close()
	fab.Comm(0).Send(1, 1, "through the wrapper", 0)
	if m := fab.Comm(1).Recv(1); m.Payload != "through the wrapper" {
		t.Fatalf("payload = %v", m.Payload)
	}
}

// TestScheduledKill: with a kill armed before the first send, the rank dies
// unannounced just before its matching send, the triggering message is lost
// with it, and survivors observe the death through the transport.
func TestScheduledKill(t *testing.T) {
	fab := newChaos(t, 2)
	fab.Arm(chaos.KillSpec{Rank: 0, Tag: 5, AfterSends: 1})
	c0, c1 := fab.Comm(0), fab.Comm(1)
	c0.Send(1, 9, "other tag, not counted", 0)
	c0.Send(1, 5, "first tag-5 send, delivered", 0)
	c0.Send(1, 5, "second tag-5 send, lost with the process", 0)

	if m, err := c1.RecvEvent(0, 9, time.Second); err != nil || m.Payload != "other tag, not counted" {
		t.Fatalf("non-matching tag was affected: %v %v", m, err)
	}
	if m, err := c1.RecvEvent(0, 5, time.Second); err != nil || m.Payload != "first tag-5 send, delivered" {
		t.Fatalf("send before the kill point: %v %v", m, err)
	}
	var pd *cluster.PeerDownError
	if _, err := c1.RecvEvent(cluster.AnySource, cluster.AnyTag, time.Second); !errors.As(err, &pd) || pd.Rank != 0 {
		t.Fatalf("after the kill point: %v, want PeerDown(0) — the triggering message must be lost", err)
	}
}

// TestArmedKill: a spec armed mid-run counts sends from the moment of
// arming, not from construction, and fires exactly once. Rank 0 runs on its
// own goroutine and is parked in a receive whenever Arm is called.
func TestArmedKill(t *testing.T) {
	fab := newChaos(t, 2)
	c0, c1 := fab.Comm(0), fab.Comm(1)
	done := make(chan struct{})
	go func() { // rank 0: answer every request until its link dies
		defer close(done)
		for {
			if _, err := c0.RecvEvent(1, 1, -1); err != nil {
				return
			}
			c0.Send(1, 5, "reply", 0)
		}
	}()
	ask := func() (cluster.Message, error) {
		c1.Send(0, 1, "request", 0)
		return c1.RecvEvent(cluster.AnySource, cluster.AnyTag, 5*time.Second)
	}
	for i := 0; i < 2; i++ { // two tag-5 sends before arming: not counted
		if _, err := ask(); err != nil {
			t.Fatalf("unarmed reply %d: %v", i, err)
		}
	}
	fab.Arm(chaos.KillSpec{Rank: 0, Tag: 5, AfterSends: 1})
	if m, err := ask(); err != nil || m.Payload != "reply" {
		t.Fatalf("first send after arming must pass: %v %v", m, err)
	}
	var pd *cluster.PeerDownError
	if _, err := ask(); !errors.As(err, &pd) || pd.Rank != 0 {
		t.Fatalf("second send after arming: %v, want PeerDown(0)", err)
	}
	<-done
}
