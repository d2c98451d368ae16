package cluster

import (
	"sync"
	"testing"
	"time"
)

func TestSendRecvBasic(t *testing.T) {
	n := NewNetwork(2)
	c0, c1 := n.Comm(0), n.Comm(1)
	done := make(chan Message, 1)
	go func() { done <- c1.Recv(7) }()
	c0.Send(1, 7, "hello", 5)
	m := <-done
	if m.From != 0 || m.Tag != 7 || m.Payload.(string) != "hello" || m.Bytes != 5 {
		t.Fatalf("message = %+v", m)
	}
	st := n.Stats()
	if st.Messages != 1 || st.Bytes != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if c0.Stats().Messages != 1 || c1.Stats().Messages != 0 {
		t.Fatal("per-rank counters wrong")
	}
}

func TestFIFOPerSender(t *testing.T) {
	n := NewNetwork(2)
	c0, c1 := n.Comm(0), n.Comm(1)
	for i := 0; i < 100; i++ {
		c0.Send(1, 1, i, 8)
	}
	for i := 0; i < 100; i++ {
		m := c1.Recv(1)
		if m.Payload.(int) != i {
			t.Fatalf("out of order: got %v want %d", m.Payload, i)
		}
	}
}

func TestTagFiltering(t *testing.T) {
	n := NewNetwork(2)
	c0, c1 := n.Comm(0), n.Comm(1)
	c0.Send(1, 1, "a", 1)
	c0.Send(1, 2, "b", 1)
	c0.Send(1, 1, "c", 1)
	if m := c1.Recv(2); m.Payload.(string) != "b" {
		t.Fatalf("tag filter broken: %v", m.Payload)
	}
	// The skipped tag-1 messages must still arrive, in order.
	if m := c1.Recv(1); m.Payload.(string) != "a" {
		t.Fatal("pending message lost or reordered")
	}
	if m := c1.Recv(AnyTag); m.Payload.(string) != "c" {
		t.Fatal("AnyTag should drain remaining message")
	}
}

func TestRecvFromSpecificSender(t *testing.T) {
	n := NewNetwork(3)
	c0, c1, c2 := n.Comm(0), n.Comm(1), n.Comm(2)
	c0.Send(2, 1, "from0", 1)
	c1.Send(2, 1, "from1", 1)
	if m := c2.RecvFrom(1, 1); m.Payload.(string) != "from1" {
		t.Fatal("RecvFrom wrong sender")
	}
	if m := c2.RecvFrom(0, 1); m.Payload.(string) != "from0" {
		t.Fatal("buffered message from rank 0 lost")
	}
}

func TestRingCirculation(t *testing.T) {
	// A token must travel the full ring and return — the heart of ParMAC's
	// W step topology (§4.1).
	const p = 6
	n := NewNetwork(p)
	var wg sync.WaitGroup
	var final []int
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := n.Comm(rank)
			if rank == 0 {
				c.Send(1, 1, []int{0}, 8)
				m := c.Recv(1) // the token returns after a full lap
				final = append(m.Payload.([]int), rank)
				return
			}
			m := c.Recv(1)
			path := append(m.Payload.([]int), rank)
			c.Send((rank+1)%p, 1, path, 8)
		}(r)
	}
	wg.Wait()
	// The token visited 0,1,...,p-1 and returned to 0.
	if len(final) != p+1 {
		t.Fatalf("token path %v", final)
	}
	for i := 0; i < p; i++ {
		if final[i] != i {
			t.Fatalf("token path out of order: %v", final)
		}
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	n := NewNetwork(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Comm(0).Send(5, 0, nil, 0)
}

func TestRecvBlocksUntilSend(t *testing.T) {
	n := NewNetwork(2)
	c0, c1 := n.Comm(0), n.Comm(1)
	got := make(chan struct{})
	go func() {
		c1.Recv(0)
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("Recv returned before Send")
	case <-time.After(10 * time.Millisecond):
	}
	c0.Send(1, 0, nil, 0)
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("Recv never returned")
	}
}
