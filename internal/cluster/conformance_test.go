// Cross-backend conformance suite: one scenario table, executed against
// every transport in the registry. A new backend inherits the whole suite by
// calling cluster.RegisterTransport in its init — nothing here names a
// backend. The scenarios pin down the delivery contract the ParMAC engine
// relies on: per-sender FIFO, tag filtering with AnySource/AnyTag wildcards,
// byte accounting, full ring circulation, bounded-inbox backpressure,
// deadline-bounded receives, and peer-down events, received or polled, after
// a rank is killed.
package cluster_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	_ "repro/internal/cluster/chaos" // register the chaos wrapper (no kill armed)
	_ "repro/internal/cluster/tcp"   // register the TCP backend
)

// scenario is one conformance case, run once per registered transport.
type scenario struct {
	name string
	p    int
	opts []cluster.Option
	run  func(t *testing.T, fab cluster.Fabric)
}

var scenarios = []scenario{
	{"SendRecvEnvelope", 2, nil, scenarioSendRecvEnvelope},
	{"FIFOPerSender", 2, nil, scenarioFIFOPerSender},
	{"TagFiltering", 2, nil, scenarioTagFiltering},
	{"AnySourceAnyTag", 3, nil, scenarioAnySourceAnyTag},
	{"RecvFromBuffers", 3, nil, scenarioRecvFromBuffers},
	{"ByteAccounting", 3, nil, scenarioByteAccounting},
	{"RingCirculation", 5, nil, scenarioRingCirculation},
	{"SlowRankBackpressure", 4, []cluster.Option{cluster.WithInboxCapacity(2)}, scenarioSlowRank},
	{"RecvEventTimeout", 2, nil, scenarioRecvEventTimeout},
	{"KillPeerDownFIFO", 3, nil, scenarioKillPeerDownFIFO},
	{"SendToDeadRankDrops", 3, nil, scenarioSendToDeadRankDrops},
	{"PollDown", 3, nil, scenarioPollDown},
}

func TestConformance(t *testing.T) {
	names := cluster.TransportNames()
	if len(names) < 2 {
		t.Fatalf("expected at least two registered transports, have %v", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, sc := range scenarios {
				t.Run(sc.name, func(t *testing.T) {
					fab, err := cluster.NewFabric(name, sc.p, sc.opts...)
					if err != nil {
						t.Fatalf("building %s fabric: %v", name, err)
					}
					defer fab.Close()
					done := make(chan struct{})
					go func() {
						defer close(done)
						sc.run(t, fab)
					}()
					select {
					case <-done:
					case <-time.After(60 * time.Second):
						t.Fatalf("scenario deadlocked on transport %s", name)
					}
				})
			}
		})
	}
}

// eachRank runs body concurrently on every rank and waits — the SPMD pattern
// of every MPI program.
func eachRank(fab cluster.Fabric, body func(c *cluster.Comm)) {
	var wg sync.WaitGroup
	for r := 0; r < fab.Size(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			body(fab.Comm(r))
		}(r)
	}
	wg.Wait()
}

func scenarioSendRecvEnvelope(t *testing.T, fab cluster.Fabric) {
	eachRank(fab, func(c *cluster.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, "hello", 5)
		case 1:
			m := c.Recv(7)
			if m.From != 0 || m.Tag != 7 || m.Payload.(string) != "hello" || m.Bytes != 5 {
				t.Errorf("message envelope = %+v", m)
			}
		}
	})
}

func scenarioFIFOPerSender(t *testing.T, fab cluster.Fabric) {
	const n = 200
	eachRank(fab, func(c *cluster.Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < n; i++ {
				c.Send(1, 1, i, 8)
			}
		case 1:
			for i := 0; i < n; i++ {
				if m := c.Recv(1); m.Payload.(int) != i {
					t.Errorf("out of order: got %v want %d", m.Payload, i)
					return
				}
			}
		}
	})
}

func scenarioTagFiltering(t *testing.T, fab cluster.Fabric) {
	eachRank(fab, func(c *cluster.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, "a", 1)
			c.Send(1, 2, "b", 1)
			c.Send(1, 1, "c", 1)
		case 1:
			if m := c.Recv(2); m.Payload.(string) != "b" {
				t.Errorf("tag filter broken: %v", m.Payload)
			}
			if m := c.Recv(1); m.Payload.(string) != "a" {
				t.Error("pending message lost or reordered")
			}
			if m := c.Recv(cluster.AnyTag); m.Payload.(string) != "c" {
				t.Error("AnyTag should drain the remaining message")
			}
		}
	})
}

func scenarioAnySourceAnyTag(t *testing.T, fab cluster.Fabric) {
	eachRank(fab, func(c *cluster.Comm) {
		switch c.Rank() {
		case 0, 1:
			c.Send(2, 10+c.Rank(), c.Rank(), 8)
		case 2:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				m := c.Recv(cluster.AnyTag)
				if m.Tag != 10+m.From {
					t.Errorf("mismatched envelope %+v", m)
				}
				seen[m.From] = true
			}
			if !seen[0] || !seen[1] {
				t.Errorf("wildcard recv missed a sender: %v", seen)
			}
		}
	})
}

func scenarioRecvFromBuffers(t *testing.T, fab cluster.Fabric) {
	eachRank(fab, func(c *cluster.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 1, "from0", 1)
		case 1:
			c.Send(2, 1, "from1", 1)
		case 2:
			if m := c.RecvFrom(1, 1); m.Payload.(string) != "from1" {
				t.Error("RecvFrom wrong sender")
			}
			if m := c.RecvFrom(0, 1); m.Payload.(string) != "from0" {
				t.Error("buffered message from rank 0 lost")
			}
		}
	})
}

func scenarioByteAccounting(t *testing.T, fab cluster.Fabric) {
	eachRank(fab, func(c *cluster.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 1, "x", 100)
			c.Send(2, 1, "y", 50)
		case 1:
			c.Send(2, 1, "z", 7)
		case 2:
			for i := 0; i < 3; i++ {
				c.Recv(1)
			}
		}
	})
	st := fab.Stats()
	if st.Messages != 3 || st.Bytes != 157 {
		t.Fatalf("fabric stats = %+v, want 3 messages / 157 bytes", st)
	}
	if s := fab.Comm(0).Stats(); s.Messages != 2 || s.Bytes != 150 {
		t.Fatalf("rank 0 stats = %+v", s)
	}
	if s := fab.Comm(2).Stats(); s.Messages != 0 {
		t.Fatalf("receiving must not count as sending: %+v", s)
	}
}

func scenarioRingCirculation(t *testing.T, fab cluster.Fabric) {
	// Tokens travel the full ring and return home — the heart of ParMAC's
	// W-step topology (§4.1). Several tokens circulate at once for several
	// laps, each accumulating its visit path.
	const tokens, laps = 3, 4
	p := fab.Size()
	finals := make([][]int, tokens)
	eachRank(fab, func(c *cluster.Comm) {
		rank := c.Rank()
		for tok := 0; tok < tokens; tok++ {
			if tok%p == rank {
				c.Send((rank+1)%p, tok, []int{rank}, 8)
			}
		}
		// Every rank receives each token exactly `laps` times; the home rank
		// collects its token on the final lap instead of forwarding it.
		for i := 0; i < tokens*laps; i++ {
			m := c.Recv(cluster.AnyTag)
			path := append(m.Payload.([]int), rank)
			if m.Tag%p == rank && len(path) == laps*p+1 {
				finals[m.Tag] = path
				continue
			}
			c.Send((rank+1)%p, m.Tag, path, 8)
		}
	})
	for tok, path := range finals {
		if len(path) != laps*p+1 {
			t.Fatalf("token %d path %v", tok, path)
		}
		home := tok % p
		for i, r := range path {
			if r != (home+i)%p {
				t.Fatalf("token %d left the ring: %v", tok, path)
			}
		}
	}
}

func scenarioSlowRank(t *testing.T, fab cluster.Fabric) {
	// Backpressure: the inbox holds only 2 messages and rank 2 is slow, so
	// upstream sends must block — yet the ring keeps making progress because
	// every rank keeps draining. A deadlock here trips the suite's timeout.
	const tokens, laps = 8, 3
	p := fab.Size()
	var arrived int64
	var mu sync.Mutex
	eachRank(fab, func(c *cluster.Comm) {
		rank := c.Rank()
		for tok := 0; tok < tokens; tok++ {
			if tok%p == rank {
				c.Send((rank+1)%p, tok, 1, 8)
			}
		}
		// Each token passes through every rank exactly `laps` times.
		for i := 0; i < tokens*laps; i++ {
			m := c.Recv(cluster.AnyTag)
			if rank == 2 {
				time.Sleep(2 * time.Millisecond)
			}
			hops := m.Payload.(int)
			if hops == laps*p {
				mu.Lock()
				arrived++
				mu.Unlock()
				continue
			}
			c.Send((rank+1)%p, m.Tag, hops+1, 8)
		}
	})
	if arrived != tokens {
		t.Fatalf("only %d/%d tokens completed", arrived, tokens)
	}
}

// scenarioRecvEventTimeout: a deadline-bounded receive must return
// ErrRecvTimeout instead of blocking forever, and the comm must keep working
// after the timeout.
func scenarioRecvEventTimeout(t *testing.T, fab cluster.Fabric) {
	if _, err := fab.Comm(0).RecvEvent(cluster.AnySource, cluster.AnyTag, 50*time.Millisecond); !errors.Is(err, cluster.ErrRecvTimeout) {
		t.Fatalf("err = %v, want ErrRecvTimeout", err)
	}
	fab.Comm(1).Send(0, 9, "after-timeout", 0)
	m, err := fab.Comm(0).RecvEvent(1, 9, 10*time.Second)
	if err != nil || m.Payload != "after-timeout" {
		t.Fatalf("recv after timeout: %v %v", m, err)
	}
}

// kill severs rank unannounced through its raw endpoint, as a process death
// would. Every registered transport exposes its endpoints.
func kill(t *testing.T, fab cluster.Fabric, rank int) {
	t.Helper()
	ef, ok := fab.(cluster.EndpointFabric)
	if !ok {
		t.Fatalf("transport %T does not expose its endpoints", fab)
	}
	ef.Endpoint(rank).Abort()
}

// scenarioKillPeerDownFIFO: killing a rank surfaces as a PeerDownError on
// every survivor's RecvEvent — after the dead rank's final sends, so nothing
// it managed to forward is lost or reordered.
func scenarioKillPeerDownFIFO(t *testing.T, fab cluster.Fabric) {
	fab.Comm(0).Send(2, 7, "final-forward", 0)
	kill(t, fab, 0)

	var pd *cluster.PeerDownError
	// Rank 2 must see the final message before the death.
	m, err := fab.Comm(2).RecvEvent(cluster.AnySource, cluster.AnyTag, 10*time.Second)
	if err != nil || m.Payload != "final-forward" {
		t.Fatalf("rank 2 first event = %v %v, want the final message", m, err)
	}
	if _, err := fab.Comm(2).RecvEvent(cluster.AnySource, cluster.AnyTag, 10*time.Second); !errors.As(err, &pd) || pd.Rank != 0 {
		t.Fatalf("rank 2 second event = %v, want PeerDown(0)", err)
	}
	// Rank 1 got no message; it sees only the down event.
	if _, err := fab.Comm(1).RecvEvent(cluster.AnySource, cluster.AnyTag, 10*time.Second); !errors.As(err, &pd) || pd.Rank != 0 {
		t.Fatalf("rank 1 event = %v, want PeerDown(0)", err)
	}
	if !fab.Comm(1).Down(0) || !fab.Comm(2).Down(0) {
		t.Fatal("Down(0) = false on a survivor after observing the death")
	}
}

// scenarioSendToDeadRankDrops: sending to a dead rank must neither panic nor
// block — the frame is dropped and counted in the fabric's stats.
func scenarioSendToDeadRankDrops(t *testing.T, fab cluster.Fabric) {
	kill(t, fab, 1)
	var pd *cluster.PeerDownError
	if _, err := fab.Comm(0).RecvEvent(cluster.AnySource, cluster.AnyTag, 10*time.Second); !errors.As(err, &pd) || pd.Rank != 1 {
		t.Fatalf("death not observed: %v", err)
	}
	before := fab.Stats().Dropped
	fab.Comm(0).Send(1, 4, "into the void", 0)
	deadline := time.Now().Add(10 * time.Second)
	for fab.Stats().Dropped <= before {
		if time.Now().After(deadline) {
			t.Fatalf("dropped frame never counted (dropped = %d)", fab.Stats().Dropped)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scenarioPollDown: PollDown never blocks, keeps an application message that
// arrived ahead of a death for the next receive, and reports each death
// exactly once across PollDown and RecvEvent.
func scenarioPollDown(t *testing.T, fab cluster.Fabric) {
	c := fab.Comm(2)
	if got := c.PollDown(); got != nil {
		t.Fatalf("PollDown on an empty inbox = %v, want nil", got)
	}
	fab.Comm(0).Send(2, 7, "final-forward", 0)
	kill(t, fab, 0)
	kill(t, fab, 1)
	reported := map[int]int{}
	for deadline := time.Now().Add(10 * time.Second); len(reported) < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("deaths reported %v, want ranks 0 and 1", reported)
		}
		for _, r := range c.PollDown() {
			reported[r]++
		}
	}
	for _, r := range c.PollDown() {
		reported[r]++
	}
	if len(reported) != 2 || reported[0] != 1 || reported[1] != 1 {
		t.Fatalf("deaths reported %v, want ranks 0 and 1 once each", reported)
	}
	// Rank 0's message reached rank 2 before its death did.
	m, err := c.RecvEvent(cluster.AnySource, cluster.AnyTag, 10*time.Second)
	if err != nil || m.Payload != "final-forward" {
		t.Fatalf("receive after PollDown = %v %v, want the queued message", m, err)
	}
	if _, err := c.RecvEvent(cluster.AnySource, cluster.AnyTag, 50*time.Millisecond); !errors.Is(err, cluster.ErrRecvTimeout) {
		t.Fatalf("next receive = %v, want ErrRecvTimeout, not a replayed death", err)
	}
}
