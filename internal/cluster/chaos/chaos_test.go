package chaos_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
)

func newChaos(t *testing.T, p int, o chaos.Options) *chaos.Fabric {
	t.Helper()
	fab, err := chaos.New(cluster.NewNetwork(p), o)
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

func TestDuplicateDeliveryPreservesFIFO(t *testing.T) {
	fab := newChaos(t, 2, chaos.Options{Seed: 1, DupProb: 1})
	fab.Comm(0).Send(1, 1, "a", 0)
	fab.Comm(0).Send(1, 1, "b", 0)
	// Every message is duplicated back-to-back: a a b b.
	want := []string{"a", "a", "b", "b"}
	for i, w := range want {
		m, err := fab.Comm(1).RecvEvent(0, 1, time.Second)
		if err != nil || m.Payload != w {
			t.Fatalf("delivery %d = %v %v, want %q", i, m, err, w)
		}
	}
}

func TestDelayedDeliveryStillArrivesInOrder(t *testing.T) {
	fab := newChaos(t, 2, chaos.Options{Seed: 3, DelayProb: 1, MaxDelay: 5 * time.Millisecond})
	for i := 0; i < 10; i++ {
		fab.Comm(0).Send(1, 1, i, 0)
	}
	for i := 0; i < 10; i++ {
		m, err := fab.Comm(1).RecvEvent(0, 1, 5*time.Second)
		if err != nil || m.Payload != i {
			t.Fatalf("delivery %d = %v %v", i, m, err)
		}
	}
}

// TestScheduledKill: the rank dies unannounced just before its matching
// send, the triggering message is lost with it, and survivors observe the
// death through the transport.
func TestScheduledKill(t *testing.T) {
	fab := newChaos(t, 2, chaos.Options{
		Seed:  5,
		Kills: []chaos.KillSpec{{Rank: 0, Tag: 5, AfterSends: 1}},
	})
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

// TestSeedDeterminism: the same (seed, schedule) must replay the exact same
// fault decisions — the property that makes chaos failures debuggable.
func TestSeedDeterminism(t *testing.T) {
	run := func() []int {
		fab := newChaos(t, 2, chaos.Options{Seed: 42, DupProb: 0.5})
		const n = 50
		for i := 0; i < n; i++ {
			fab.Comm(0).Send(1, 1, i, 0)
		}
		var seq []int
		for {
			m, err := fab.Comm(1).RecvEvent(0, 1, 100*time.Millisecond)
			if err != nil {
				break // drained
			}
			seq = append(seq, m.Payload.(int))
		}
		return seq
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	dup := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] == a[i-1] {
			dup++
		}
	}
	if dup == 0 {
		t.Fatal("DupProb 0.5 over 50 sends injected no duplicates")
	}
}

// TestArmedKill: a spec armed mid-run counts sends from the moment of
// arming, not from construction, and fires exactly once. Rank 0 runs on its
// own goroutine and is parked in a receive whenever Arm is called.
func TestArmedKill(t *testing.T) {
	fab := newChaos(t, 2, chaos.Options{Seed: 9})
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
