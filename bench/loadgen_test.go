package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stubServer answers every request after a fixed service time and records
// the largest number of requests it ever held at once.
func stubServer(service time.Duration) (*httptest.Server, *atomic.Int64) {
	var inFlight, maxInFlight atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		sleepPrecisely(service)
		inFlight.Add(-1)
		w.Write([]byte("{}"))
	}))
	return srv, &maxInFlight
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	const service = 4 * time.Millisecond
	srv, maxInFlight := stubServer(service)
	defer srv.Close()
	do, closeIdle := httpDo(srv.URL, [][]byte{[]byte("{}")}, 2)
	defer closeIdle()
	gen := &loadgen{conns: 2, do: do, keepEvery: 4}
	gen.closed(0, 10, 10) // open both connections

	// Far below capacity (2 connections / 4 ms = 500/s): latency is the
	// service time plus the HTTP round trip, and the generator is on time.
	res := gen.open(poissonSchedule(rand.New(rand.NewSource(1)), 50, 60))
	if res.sent != 60 || res.okCount() != 60 {
		t.Fatalf("sent %d ok %d, want 60/60", res.sent, res.okCount())
	}
	p50 := quantile(res.okLatencies(), 0.5)
	if p50 < 4 || p50 > 7 {
		t.Errorf("p50 latency %.2f ms, want service time 4 ms (+ at most 3 ms of round trip)", p50)
	}
	if len(res.lateMs) == 0 {
		t.Fatal("no lateness samples at a rate the generator sleeps for")
	}
	if late := quantile(sortedCopy(res.lateMs), 0.9); late > 2 {
		t.Errorf("p90 generator lateness %.2f ms, want < 2 ms", late)
	}
	if len(res.kept) != 15 {
		t.Errorf("kept %d response bodies, want every 4th of 60", len(res.kept))
	}

	// Far above capacity: the backlog shows up as latency because requests are
	// timed from when they were due, and still only two are ever in flight.
	res = gen.open(poissonSchedule(rand.New(rand.NewSource(2)), 2000, 100))
	lat := res.latMs[:res.sent]
	if lat[len(lat)-1] < 10*lat[0] || lat[len(lat)-1] < 100 {
		t.Errorf("overload: first request %.1f ms, last %.1f ms; the queue's wait is not being counted",
			lat[0], lat[len(lat)-1])
	}
	if got := maxInFlight.Load(); got != 2 {
		t.Errorf("max requests in flight %d, want exactly the 2 connections", got)
	}
}

func TestClosedLoopStopsOnTimeAndLimit(t *testing.T) {
	srv, maxInFlight := stubServer(time.Millisecond)
	defer srv.Close()
	do, closeIdle := httpDo(srv.URL, [][]byte{[]byte("{}")}, 2)
	defer closeIdle()
	gen := &loadgen{conns: 2, do: do}
	res := gen.closed(time.Minute, 0, 25)
	if res.sent != 25 || res.okCount() != 25 {
		t.Fatalf("limit: sent %d ok %d, want 25", res.sent, res.okCount())
	}
	res = gen.closed(100*time.Millisecond, 0, 1<<16)
	if res.sent < 20 || res.wall > 0.5 {
		t.Fatalf("duration: sent %d in %.2fs, want a 0.1 s step of 1 ms requests", res.sent, res.wall)
	}
	// A step too short for its sample runs on until it has the sample.
	res = gen.closed(time.Millisecond, 60, 1<<16)
	if res.sent < 60 || res.sent > 62 {
		t.Fatalf("count floor: sent %d, want the 60 asked for (plus at most one per connection)", res.sent)
	}
	for i := 1; i < res.sent; i++ {
		if res.doneS[i] <= 0 || res.doneS[i] > res.wall {
			t.Fatalf("request %d completed at %.4f s of a %.4f s step", i, res.doneS[i], res.wall)
		}
	}
	if got := maxInFlight.Load(); got > 2 {
		t.Errorf("max requests in flight %d, want <= 2", got)
	}
}
