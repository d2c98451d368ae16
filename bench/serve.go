package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"time"

	"repro/internal/binauto"
	"repro/internal/dataset"
	"repro/internal/pca"
	"repro/internal/retrieval"
	"repro/internal/serve"
	"repro/internal/svm"
)

const (
	serveConns  = 2    // C keep-alive HTTP connections, one per hardware thread
	queryPool   = 4096 // distinct queries a step cycles through
	checkEvery  = 16   // every 16th response is checked against the oracle
	warmupCount = 200  // requests discarded before the first step
	serveDim    = 128  // feature dimension of the vector workload
	// stepCap bounds a closed-loop step (and sizes its result arrays); the
	// fastest workload sends a fifth of it.
	stepCap = 1 << 17

	// A run is serveRounds rounds: set-up, then three steps that split the
	// round's share of --seconds between them.
	serveRounds                         = 4
	singleShare, openShare, closedShare = 0.15, 0.3, 0.55

	// minClosed is the least a closed step sends, however slow the host: a
	// p99 with ten requests beyond it. minOpen is the same for the traced
	// run's open step and its p95.
	minClosed = 1000
	minOpen   = 250
)

// serveSizes fixes one serving workload.
type serveSizes struct {
	Kind    string // index engine: "linear" or "mih"
	N       int
	L       int
	K       int
	Vector  bool    // queries are feature vectors, encoded by the live model
	OpenQPS float64 // arrival rate of the open-loop step
	LimitMs float64 // latency limit of the open-loop step
	// Clusters is the number of mixture components of the vector workload's
	// data; the larger ones become the index's heavy buckets.
	Clusters int
	// Writes beside reads: a writer calls StreamingMIH.Add with AddBatch
	// fresh codes AddsPerS times a second (0: read-only workload).
	AddsPerS float64
	AddBatch int
	AddCodes int // fresh codes set aside at set-up for the writer
}

// serveFixture is a running server plus everything the benchmark needs to
// generate load against it and to check its answers.
type serveFixture struct {
	sz      serveSizes
	model   *binauto.Model   // nil for the code workload
	all     *retrieval.Codes // indexed codes followed by the writer's fresh codes
	index   serve.Index
	srv     *serve.Server
	httpSrv *http.Server
	served  chan struct{}
	url     string
	// do performs pool request i on client connection conn; closeIdle drops
	// the clients' keep-alive connections.
	do        func(conn, i int) ([]byte, error)
	closeIdle func()
	bodies    [][]byte

	queryVecs  *dataset.Dataset // vector workload: pool query i is point queryOff+i
	queryOff   int
	queryCodes *retrieval.Codes // code of every pool query (the model's, for vectors)

	datasetS, indexS, warmupS float64
}

// setupServe builds the index from the seed, starts the HTTP server on a
// loopback listener, renders the request pool and sends the warm-up requests:
// everything that precedes the first timed request. The warm-up belongs here
// so that work a change defers to the first requests still shows in setup_s.
func setupServe(sz serveSizes, seed int64) (*serveFixture, error) {
	f := &serveFixture{sz: sz, served: make(chan struct{})}
	t0 := time.Now()
	if sz.Vector {
		// One byte-quantised mixture; its tail is the query pool, so queries
		// come from the distribution of the indexed data.
		points := dataset.SIFTLike(sz.N+sz.AddCodes+queryPool, serveDim, sz.Clusters, seed)
		f.model = tpcaModel(points, sz.L, seed)
		codes := f.model.EncodeParallel(points, -1)
		f.queryOff = sz.N + sz.AddCodes
		f.all = codeRows(codes, 0, f.queryOff)
		f.queryCodes = codeRows(codes, f.queryOff, codes.N)
		f.queryVecs = points
	} else {
		rng := rand.New(rand.NewSource(seed))
		f.all = retrieval.NewCodes(sz.N, sz.L)
		f.queryCodes = retrieval.NewCodes(queryPool, sz.L)
		for _, c := range []*retrieval.Codes{f.all, f.queryCodes} {
			for i := range c.Data {
				c.Data[i] = rng.Uint64()
			}
		}
	}
	t1 := time.Now()
	f.datasetS = t1.Sub(t0).Seconds()

	var err error
	f.index, err = serve.BuildIndex(f.indexed(), serve.IndexConfig{Kind: sz.Kind, Shards: serveConns})
	if err != nil {
		return nil, err
	}
	dep, err := serve.NewDeployment("bench", f.model, f.index)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	f.indexS = t2.Sub(t1).Seconds()
	f.srv = serve.New(dep, serve.Options{IndexKind: sz.Kind, ShadowRate: -1, Logf: func(string, ...any) {}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.srv.Close()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String() + "/v1/search"
	f.httpSrv = &http.Server{Handler: f.srv.Handler()}
	go func() {
		defer close(f.served)
		_ = f.httpSrv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	if f.bodies, err = f.requestBodies(); err != nil {
		f.close()
		return nil, err
	}
	f.do, f.closeIdle = httpDo(f.url, f.bodies, serveConns)
	warm := &loadgen{conns: serveConns, do: f.do}
	if s := warm.closed(0, warmupCount, warmupCount); s.okCount() != warmupCount {
		f.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests succeeded", s.okCount(), warmupCount)
	}
	f.warmupS = time.Since(t2).Seconds()
	return f, nil
}

// codeRows is a view of rows [lo, hi) of c, sharing its storage.
func codeRows(c *retrieval.Codes, lo, hi int) *retrieval.Codes {
	return &retrieval.Codes{N: hi - lo, L: c.L, Words: c.Words, Data: c.Data[lo*c.Words : hi*c.Words]}
}

// indexed is the view of the first N codes, the ones the index starts with.
func (f *serveFixture) indexed() *retrieval.Codes { return codeRows(f.all, 0, f.sz.N) }

// close drops the client connections, stops the listener and the batcher and
// waits for both.
func (f *serveFixture) close() {
	if f.closeIdle != nil {
		f.closeIdle()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.httpSrv.Shutdown(ctx); err != nil {
		f.httpSrv.Close()
	}
	<-f.served
	f.srv.Close()
}

// tpcaModel is a live model without a training run: the truncated-PCA hash
// the autoencoder is initialised from, written as L linear encoders. On
// clustered data its buckets are skewed the way a trained model's are.
func tpcaModel(ds *dataset.Dataset, l int, seed int64) *binauto.Model {
	sample := rand.New(rand.NewSource(seed)).Perm(ds.N)[:min(2000, ds.N)]
	h := pca.FitTPCA(ds.Subset(sample), l)
	m := binauto.NewModel(ds.D, l, 0)
	for b := 0; b < l; b++ {
		enc := svm.NewLinear(ds.D, 0)
		for i := range enc.W {
			enc.W[i] = h.P.Components.At(i, b)
			enc.B -= enc.W[i] * h.P.Mean[i]
		}
		m.Enc[b] = enc
	}
	return m
}

// requestBodies renders every pool query as the JSON the API accepts.
func (f *serveFixture) requestBodies() ([][]byte, error) {
	bodies := make([][]byte, queryPool)
	buf := make([]float64, serveDim)
	for i := range bodies {
		req := map[string]any{"k": f.sz.K}
		if f.sz.Vector {
			req["vector"] = f.queryVecs.Point(f.queryOff+i, buf)
		} else {
			req["code"] = serve.FormatCode(f.queryCodes.Code(i))
		}
		var err error
		if bodies[i], err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// httpDo returns the loadgen request function — one http.Client per
// connection, each holding a single keep-alive connection — and a function
// that closes those connections.
func httpDo(url string, bodies [][]byte, conns int) (do func(conn, i int) ([]byte, error), closeIdle func()) {
	clients := make([]*http.Client, conns)
	for c := range clients {
		clients[c] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	closeIdle = func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}
	return func(conn, i int) ([]byte, error) {
		resp, err := clients[conn].Post(url, "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		return body, nil
	}, closeIdle
}

// writer calls StreamingMIH.Add at a fixed rate until stopped, timing every
// call. Ids of added codes continue the indexed ones, so f.all stays the
// ground truth for any id a reader can see.
type writer struct {
	stop   chan struct{}
	done   chan struct{}
	addMs  []float64
	failed int
}

func startWriter(f *serveFixture) *writer {
	w := &writer{stop: make(chan struct{}), done: make(chan struct{})}
	mih, ok := f.index.(*serve.StreamingMIH)
	if !ok || f.sz.AddsPerS <= 0 {
		close(w.done)
		return w
	}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(time.Duration(float64(time.Second) / f.sz.AddsPerS))
		defer tick.Stop()
		for at := f.sz.N; at+f.sz.AddBatch <= f.all.N; at += f.sz.AddBatch {
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			err := mih.Add(codeRows(f.all, at, at+f.sz.AddBatch))
			w.addMs = append(w.addMs, float64(time.Since(t0))/1e6)
			if err != nil {
				w.failed++
			}
		}
	}()
	return w
}

func (w *writer) halt() {
	close(w.stop)
	<-w.done
}

// checkResponses verifies the kept responses of one step against the oracle
// and returns how many failed.
//
// Read-only index: the answer must equal retrieval.TopKHammingDist on the
// base codes, tie order included. Index growing under the reader: the answer
// must be sorted by (Dist, Index), every distance must be the true Hamming
// distance to that id's code, and the k-th distance may not exceed the
// oracle's k-th over the original N (later codes can only improve it).
func (f *serveFixture) checkResponses(kept map[int][]byte) (checked, bad int) {
	base := f.indexed()
	for i, body := range kept {
		checked++
		var resp struct {
			Neighbors []retrieval.Neighbor `json:"neighbors"`
		}
		q := f.queryCodes.Code(i % queryPool)
		want := retrieval.TopKHammingDist(base, q, f.sz.K)
		if json.Unmarshal(body, &resp) != nil || len(resp.Neighbors) != len(want) {
			bad++
			continue
		}
		ok := true
		for j, n := range resp.Neighbors {
			if f.sz.AddsPerS <= 0 {
				ok = ok && n == want[j]
				continue
			}
			ok = ok && n.Index >= 0 && n.Index < f.all.N &&
				n.Dist == retrieval.HammingWords(f.all.Code(n.Index), q) &&
				(j == 0 || !less(n, resp.Neighbors[j-1]))
		}
		if f.sz.AddsPerS > 0 && ok && len(want) > 0 {
			ok = resp.Neighbors[len(want)-1].Dist <= want[len(want)-1].Dist
		}
		if !ok {
			bad++
		}
	}
	return checked, bad
}

// less is the (Dist, Index) order every search entry point obeys.
func less(a, b retrieval.Neighbor) bool {
	return a.Dist < b.Dist || (a.Dist == b.Dist && a.Index < b.Index)
}

// stepLine prints one load step's numbers and returns the sorted latencies of
// its successful requests.
func stepLine(rep *report, name string, s *stepResult) []float64 {
	lat := s.okLatencies()
	line := fmt.Sprintf("step %-6s sent %d ok %d in %.2fs (%.1f/s): p50 %.3f ms",
		name, s.sent, s.okCount(), s.wall, float64(s.okCount())/s.wall, quantile(lat, 0.5))
	if p99, err := tail(lat, 0.99); err == nil {
		line += fmt.Sprintf(", p99 %.3f ms", p99)
	}
	if late := sortedCopy(s.lateMs); len(late) > 0 {
		line += fmt.Sprintf("; generator slept for %d, woke late by p50 %.3f ms, max %.3f ms",
			len(late), quantile(late, 0.5), late[len(late)-1])
	}
	rep.note("%s", line)
	return lat
}

// account adds a step's requests and failures to the report and checks its
// kept responses.
func (f *serveFixture) account(rep *report, name string, s *stepResult) {
	checked, bad := f.checkResponses(s.kept)
	rep.Attempted += s.sent
	rep.Failed += s.sent - s.okCount() + bad
	rep.check(fmt.Sprintf("%s step: %d of %d responses checked against the oracle", name, checked, s.sent), bad == 0 && checked > 0)
}

// withinLimit is the share of a step's requests that succeeded within the
// latency limit.
func withinLimit(s *stepResult, limitMs float64) float64 {
	in := 0
	for i := 0; i < s.sent; i++ {
		if s.errs[i] == nil && s.latMs[i] <= limitMs {
			in++
		}
	}
	return float64(in) / float64(s.sent)
}

// writerReport accounts the writer's adds and returns their sorted durations.
func writerReport(rep *report, addMs []float64, failed, batch int) []float64 {
	adds := sortedCopy(addMs)
	if len(adds) == 0 {
		return nil
	}
	rep.Attempted += len(adds)
	rep.Failed += failed
	rep.detail("add_ms", "ms", summarize(adds))
	rep.note("writer: %d adds of %d codes, p50 %.3f ms, p90 %.3f ms", len(adds), batch,
		quantile(adds, 0.5), quantile(adds, 0.9))
	return adds
}

// openSchedule draws the Poisson arrivals of an open step that lasts d from
// rng, at least atLeast of them.
func openSchedule(rng *rand.Rand, qps float64, d time.Duration, atLeast int) []time.Duration {
	return poissonSchedule(rng, qps, max(atLeast, int(math.Ceil(qps*d.Seconds()))))
}

func stepFor(share, seconds float64) time.Duration {
	return time.Duration(share * seconds * float64(time.Second))
}

// runServe measures one serving workload untraced, in serveRounds rounds.
// Each round is a deployment's whole life — set-up, then three steps with the
// writer (if the workload has one) running beside all of them, then shutdown:
//
//	single  one connection, back to back: the latency of a lone request
//	open    Poisson arrivals drawn from the seed at a fixed rate, over C
//	        connections, timed from when each request was due
//	closed  C connections back to back: throughput and loaded-tail latency
//
// Every metric is the best round's. The rounds are replicas of one another,
// so they differ only by what the machine did meanwhile, and the host's other
// tenants can only add time: the best round is the program on a quiet host,
// as long as the run met one.
func runServe(sz serveSizes, seed int64, seconds float64, rep *report) error {
	rng := rand.New(rand.NewSource(seed + 1))
	var setups, p50s, p99s, rates, within, addMs []float64
	addsFailed := 0
	for round := 0; round < serveRounds; round++ {
		// The previous round's index is garbage by now; collecting it here
		// keeps the repeats, the benchmark's artefact, out of peak_rss_mb.
		runtime.GC()
		t0 := time.Now()
		f, err := setupServe(sz, seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		both := &loadgen{conns: serveConns, do: f.do, keepEvery: checkEvery}
		one := &loadgen{conns: 1, do: f.do, keepEvery: checkEvery}
		step := func(name string) string { return fmt.Sprintf("%d.%s", round+1, name) }

		w := startWriter(f)
		single := one.closed(stepFor(singleShare, seconds/serveRounds), 0, stepCap)
		open := both.open(openSchedule(rng, sz.OpenQPS, stepFor(openShare, seconds/serveRounds), 0))
		closed := both.closed(stepFor(closedShare, seconds/serveRounds), minClosed, stepCap)
		w.halt()

		singleLat := stepLine(rep, step("single"), &single)
		stepLine(rep, step("open"), &open)
		closedLat := stepLine(rep, step("closed"), &closed)
		f.account(rep, step("single"), &single)
		f.account(rep, step("open"), &open)
		f.account(rep, step("closed"), &closed)
		addMs, addsFailed = append(addMs, w.addMs...), addsFailed+w.failed
		f.close()

		p99, err := tail(closedLat, 0.99)
		if err != nil {
			return fmt.Errorf("closed step: %w", err)
		}
		p50s = append(p50s, quantile(singleLat, 0.5))
		p99s = append(p99s, p99)
		rates = append(rates, float64(closed.okCount())/closed.wall)
		within = append(within, withinLimit(&open, sz.LimitMs))
	}
	writerReport(rep, addMs, addsFailed, sz.AddBatch)
	rep.detail("setup_s", "s", summarize(setups))
	rep.detail("single_p50_ms", "ms", summarize(p50s))
	rep.detail("closed_p99_ms", "ms", summarize(p99s))
	rep.detail("closed_per_s", "1/s", summarize(rates))
	rep.detail("open_within_limit", "share", summarize(within))

	rep.metric("setup_s", "s", slices.Min(setups))
	rep.metric("op_p50_ms", "ms", slices.Min(p50s))
	rep.metric("slo_ms", "ms", slices.Min(p99s))
	rep.metric("throughput_per_s", "1/s", slices.Max(rates))
	rep.metric("quality_frac", "share", slices.Max(within))
	return nil
}

// traceServe is the traced run of a serving workload: the open step with a
// span tree per request, the closed step as short alternating untraced and
// traced slices for the tracing overhead, and a query stream replayed three
// ways — over HTTP, into Server.Search, into Index.Search (+ the model's
// encoder) — so that HTTP/JSON and queue/batch costs are differences of
// measured layers.
func traceServe(name string, sz serveSizes, seed int64, seconds float64, outDir string, rep *report) error {
	f, err := setupServe(sz, seed)
	if err != nil {
		return err
	}
	defer f.close()
	rep.metric("setup.dataset_s", "s", f.datasetS)
	rep.metric("setup.index_build_s", "s", f.indexS)
	rep.metric("setup.warmup_s", "s", f.warmupS)
	tr := newTracer()
	traced := &loadgen{conns: serveConns, do: f.do, keepEvery: checkEvery}
	for c := 0; c < serveConns; c++ {
		traced.recs = append(traced.recs, tr.recorder(c, 0))
	}
	plain := &loadgen{conns: serveConns, do: f.do, keepEvery: checkEvery}

	w := startWriter(f)
	open := traced.open(openSchedule(rand.New(rand.NewSource(seed+1)), sz.OpenQPS, stepFor(openShare, seconds), minOpen))
	// The closed step is cut into pairs of short slices, one untraced and one
	// traced, the order alternating: the two rates of a pair saw the same
	// machine, and the median over the pairs ignores the pairs a stall hit.
	const pairs, sliceCap = 20, 1 << 13
	sliceFor := stepFor(closedShare/(2*pairs), seconds)
	steps := []*stepResult{&open}
	var overhead []float64
	for i := 0; i < pairs; i++ {
		var perS [2]float64 // untraced, traced
		for j := 0; j < 2; j++ {
			side := (i + j) % 2
			s := []*loadgen{plain, traced}[side].closed(sliceFor, 0, sliceCap)
			perS[side] = float64(s.okCount()) / s.wall
			steps = append(steps, &s)
		}
		overhead = append(overhead, perS[0]/perS[1]-1)
	}
	w.halt()
	stats := f.srv.Stats()

	openLat := stepLine(rep, "open", &open)
	rep.detail("trace.overhead_frac", "share", summarize(overhead))
	checked, bad, sent, ok := 0, 0, 0, 0
	for _, s := range steps {
		c, b := f.checkResponses(s.kept)
		checked, bad = checked+c, bad+b
		sent, ok = sent+s.sent, ok+s.okCount()
	}
	rep.Attempted += sent
	rep.Failed += sent - ok + bad
	rep.check(fmt.Sprintf("%d of %d responses checked against the oracle", checked, sent), bad == 0 && checked > 0)
	openP95, err := tail(openLat, 0.95)
	if err != nil {
		return fmt.Errorf("open step latency: %w", err)
	}
	lateP95, err := tail(sortedCopy(open.lateMs), 0.95)
	if err != nil {
		return fmt.Errorf("open step generator lateness: %w", err)
	}
	rep.metric("loadgen.open_p50_ms", "ms", quantile(openLat, 0.5))
	rep.metric("loadgen.open_p95_ms", "ms", openP95)
	rep.metric("loadgen.late_p95_ms", "ms", lateP95)
	rep.metric("loadgen.sent", "count", float64(sent))
	rep.metric("loadgen.ok", "count", float64(ok))
	rep.metric("trace.overhead_frac", "share", median(overhead))
	rep.metric("serve.mean_batch", "count", stats.MeanBatch)
	if adds := writerReport(rep, w.addMs, w.failed, sz.AddBatch); adds != nil {
		rep.metric("serve.add_p50_ms", "ms", quantile(adds, 0.5))
		rep.metric("serve.add_p90_ms", "ms", quantile(adds, 0.9))
		rep.metric("serve.add_count", "count", float64(len(adds)))
	}

	// Replay one query stream through each layer with the writer stopped: every
	// query goes over HTTP, then into Server.Search, then into the encoder and
	// Index.Search, back to back, so the layers' medians differ only by what the
	// outer layer adds.
	replay := min(queryPool, max(50, int(sz.OpenQPS*seconds/5)))
	rec := tr.recorder(serveConns, 1)
	buf := make([]float64, serveDim)
	code := make([]uint64, 1)
	httpMs, serverMs, indexMs, encodeUs := make([]float64, replay), make([]float64, replay), make([]float64, replay), make([]float64, replay)
	var reqBytes, respBytes float64
	query := func(i int) serve.Query {
		if sz.Vector {
			return serve.Query{Vector: append([]float64(nil), f.queryVecs.Point(f.queryOff+i, buf)...), K: sz.K}
		}
		return serve.Query{Code: f.queryCodes.Code(i), K: sz.K}
	}
	for i := 0; i < replay; i++ {
		q := query(i)
		t0 := time.Now()
		body, err := f.do(0, i)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := f.srv.Search(q); err != nil {
			return err
		}
		t2 := time.Now()
		words := q.Code
		if sz.Vector {
			code[0] = f.model.EncodePointWord(q.Vector)
			words = code
		}
		t3 := time.Now()
		f.index.Search(words, sz.K)
		t4 := time.Now()

		rec.op = i
		rec.leaf("http", t0, t1)
		rec.leaf("server.search", t1, t2)
		rec.leaf("encode", t2, t3)
		rec.leaf("index.search", t3, t4)
		httpMs[i], serverMs[i] = float64(t1.Sub(t0))/1e6, float64(t2.Sub(t1))/1e6
		encodeUs[i], indexMs[i] = float64(t3.Sub(t2))/1e3, float64(t4.Sub(t3))/1e6
		reqBytes += float64(len(f.bodies[i]))
		respBytes += float64(len(body))
	}
	encUs := 0.0
	if sz.Vector {
		encUs = median(encodeUs)
	}
	rep.metric("binauto.encode_us", "us", encUs)
	rep.metric("serve.lone_request_ms", "ms", median(httpMs))
	rep.metric("serve.http_json_ms", "ms", median(httpMs)-median(serverMs))
	rep.metric("serve.queue_batch_ms", "ms", median(serverMs)-median(indexMs)-encUs/1e3)
	rep.metric("serve.req_bytes", "count", reqBytes/float64(replay))
	rep.metric("serve.resp_bytes", "count", respBytes/float64(replay))
	rep.note("replay of %d queries: http %.3f ms, Server.Search %.3f ms, Index.Search %.3f ms, encode %.2f us",
		replay, median(httpMs), median(serverMs), median(indexMs), encUs)

	// Allocations of the direct path, counted apart so that reading the
	// allocator's statistics does not sit between timed calls.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < replay; i++ {
		if _, err := f.srv.Search(query(i)); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	rep.metric("serve.allocs_per_req", "count", float64(after.Mallocs-before.Mallocs)/float64(replay))

	switch ix := f.index.(type) {
	case *serve.ShardedIndex:
		rep.metric("retrieval.linear_search_ms", "ms", median(indexMs))
		rep.metric("retrieval.scan_ns_per_code", "ns", 1e6*median(indexMs)/float64(sz.N))
	case *serve.StreamingMIH:
		occ := ix.Occupancy()
		rep.metric("retrieval.mih_search_ms", "ms", median(indexMs))
		rep.metric("retrieval.mih_max_posting", "count", float64(occ.MaxList))
		rep.metric("retrieval.mih_mean_posting", "count", occ.MeanList)
		addMs, err := directAddMs(f)
		if err != nil {
			return err
		}
		rep.metric("retrieval.add_ms", "ms", addMs)
	}
	return writeSpans(outDir, name, tr.spans())
}

// directAddMs times retrieval.MIHIndex.WithAppended, the copy-on-write step
// under StreamingMIH.Add, with no reader competing for the cores.
func directAddMs(f *serveFixture) (float64, error) {
	ix, err := retrieval.NewMIHIndex(f.indexed(), 0)
	if err != nil {
		return 0, err
	}
	var ms []float64
	for at := f.sz.N; at+f.sz.AddBatch <= f.all.N && len(ms) < 20; at += f.sz.AddBatch {
		t0 := time.Now()
		next, err := ix.WithAppended(codeRows(f.all, at, at+f.sz.AddBatch))
		ms = append(ms, float64(time.Since(t0))/1e6)
		if err != nil {
			return 0, err
		}
		ix = next
	}
	return median(ms), nil
}
