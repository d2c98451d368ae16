package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loadgen drives requests over exactly `conns` client connections, one
// goroutine each, so never more than `conns` requests are in flight.
//
// Open loop: the due times are fixed before the step starts; a connection
// takes the next request, sleeps until it is due, and sends it. Latency is
// timed from the instant the request was due, so time spent waiting for a
// free connection — the wait a stall imposes on later requests — counts.
// Lateness is the generator's own wake-up delay, recorded only for requests a
// connection slept for: it says how trustworthy the schedule was, not how
// loaded the server is.
//
// Closed loop: every connection sends its next request as soon as the
// previous one completes, for a fixed duration and at least a fixed count, so
// that a slow host lengthens the step instead of thinning its sample.
type loadgen struct {
	conns int
	// do performs request i on connection conn and returns the response body.
	do func(conn, i int) ([]byte, error)
	// keepEvery keeps the body of every keepEvery-th request for the
	// correctness check that runs after the step (0 keeps none).
	keepEvery int
	// recs, when set, receives one span tree per request (one recorder per
	// connection).
	recs []*recorder
}

// stepResult is what one load step measured.
type stepResult struct {
	sent   int
	wall   float64
	latMs  []float64 // per request, in request order; due→done (open) or sent→done (closed)
	doneS  []float64 // per request: completion time, seconds since the step started
	errs   []error   // per request
	lateMs []float64 // wake-up delays of the requests the generator slept for
	kept   map[int][]byte
}

func (s *stepResult) okCount() int {
	n := 0
	for _, err := range s.errs[:s.sent] {
		if err == nil {
			n++
		}
	}
	return n
}

// okLatencies returns the sorted latencies of the requests that succeeded.
func (s *stepResult) okLatencies() []float64 {
	var out []float64
	for i, err := range s.errs[:s.sent] {
		if err == nil {
			out = append(out, s.latMs[i])
		}
	}
	return sortedCopy(out)
}

// poissonSchedule draws n arrival times of a Poisson process of the given
// rate (per second) from rng.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// open runs an open-loop step over the given due times (offsets from the
// step's start).
func (g *loadgen) open(due []time.Duration) stepResult {
	return g.run(len(due), due, 0, 0)
}

// closed runs a closed-loop step until d has passed and atLeast requests have
// been sent; atMost bounds it.
func (g *loadgen) closed(d time.Duration, atLeast, atMost int) stepResult {
	return g.run(atMost, nil, d, atLeast)
}

// run sends up to n requests: at their due times when due is set, otherwise
// back to back until d has passed and atLeast of them have been sent.
func (g *loadgen) run(n int, due []time.Duration, d time.Duration, atLeast int) stepResult {
	res := stepResult{latMs: make([]float64, n), doneS: make([]float64, n), errs: make([]error, n), kept: map[int][]byte{}}
	late := make([][]float64, g.conns)
	var next, sent atomic.Int64
	var keptMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var rec *recorder
			if g.recs != nil {
				rec = g.recs[c]
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= n || (due == nil && i >= atLeast && time.Since(start) >= d) {
					return
				}
				from := time.Now()
				if due != nil {
					from = start.Add(due[i])
					if wait := time.Until(from); wait > 0 {
						sleepPrecisely(wait)
						late[c] = append(late[c], float64(time.Since(from))/1e6)
					}
				}
				sentAt := time.Now()
				body, err := g.do(c, i)
				done := time.Now()
				sent.Add(1)
				res.latMs[i] = float64(done.Sub(from)) / 1e6
				res.doneS[i] = done.Sub(start).Seconds()
				res.errs[i] = err
				if g.keepEvery > 0 && i%g.keepEvery == 0 && err == nil {
					keptMu.Lock()
					res.kept[i] = body
					keptMu.Unlock()
				}
				if rec != nil {
					rec.op = i
					id := rec.beginAt("request", from)
					rec.leaf("wait_conn", from, sentAt)
					rec.leaf("http", sentAt, done)
					rec.endAt(id, done)
				}
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	// Requests are claimed in order and every claimed request is sent, so the
	// sent ones are exactly the first `sent` indices.
	res.sent = int(sent.Load())
	for _, l := range late {
		res.lateMs = append(res.lateMs, l...)
	}
	return res
}

// sleepPrecisely blocks in nanosleep(2) rather than time.Sleep: an idle Go
// runtime parks in epoll_wait, whose timeout is whole milliseconds, so
// time.Sleep wakes up to a millisecond late — as long as a whole request of
// the faster workload. The kernel's timer is good to about 0.15 ms here.
func sleepPrecisely(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
