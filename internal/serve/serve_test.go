package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binauto"
	"repro/internal/dataset"
	"repro/internal/retrieval"
)

func testModel(d, l int, seed int64) *binauto.Model {
	rng := rand.New(rand.NewSource(seed))
	m := binauto.NewModel(d, l, 1e-4)
	for _, e := range m.Enc {
		for j := range e.W {
			e.W[j] = rng.NormFloat64()
		}
		e.B = rng.NormFloat64()
	}
	return m
}

// testDeployment builds a deployment over n random points hashed by a random
// model, returning the flat codes too so tests can run oracle scans.
func testDeployment(version string, n, d, l, shards int, seed int64) (*Deployment, *retrieval.Codes, *dataset.Dataset) {
	ds := dataset.GISTLike(n, d, 4, seed)
	m := testModel(d, l, seed+100)
	codes := m.Encode(ds, 1)
	dep, err := NewDeployment(version, m, NewShardedIndex(codes, shards))
	if err != nil {
		panic(err)
	}
	return dep, codes, ds
}

func quietOpts(o Options) Options {
	o.Logf = func(string, ...any) {}
	return o
}

func TestShardedIndexMatchesSerialScan(t *testing.T) {
	// 500 16-bit codes: distances tie often, so any slip in the merge's
	// (Dist, Index) order shows. At 16 shards a shard holds 32 rows, below
	// k = 40, so some shards return every row they have.
	_, codes, _ := testDeployment("v", 500, 16, 16, 1, 1)
	queries := retrieval.NewCodes(30, 16)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < queries.N; i++ {
		queries.SetWord64(i, rng.Uint64()&0xFFFF)
	}
	for _, shards := range []int{1, 2, 3, 7, 16} {
		ix := NewShardedIndex(codes, shards)
		for _, k := range []int{0, 25, 40} {
			for qi := 0; qi < queries.N; qi++ {
				q := queries.Code(qi)
				if got, want := ix.Search(q, k), retrieval.TopKHammingDist(codes, q, k); !slices.Equal(got, want) {
					t.Fatalf("shards=%d k=%d query %d: %+v, want %+v", shards, k, qi, got, want)
				}
			}
		}
	}
}

// randomCodes draws n random one-word codes from rng: serve_scan's index
// shape at n = 400 000.
func randomCodes(rng *rand.Rand, n int) *retrieval.Codes {
	codes := retrieval.NewCodes(n, 64)
	for i := range codes.Data {
		codes.Data[i] = rng.Uint64()
	}
	return codes
}

// BenchmarkShardedSearch times Search at serve_scan's shape (400 000 random
// one-word codes, k = 50): a query fans out over the shards, so shards=2
// shows the fan-out's gain over shards=1.
func BenchmarkShardedSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	codes := randomCodes(rng, 400_000)
	query := randomCodes(rng, 1).Code(0)
	for _, shards := range []int{1, 2} {
		ix := NewShardedIndex(codes, shards)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.Search(query, 50)
			}
		})
	}
}

// BenchmarkServerSearch drives Server.Search at serve_scan's shape (400 000
// random one-word codes, k = 50, one shard per core) from GOMAXPROCS
// goroutines at once, so it shows whether concurrent searches scan
// concurrently. It reports served queries per second.
func BenchmarkServerSearch(b *testing.B) {
	dep, err := NewDeployment("bench", nil, NewShardedIndex(randomCodes(rand.New(rand.NewSource(1)), 400_000), runtime.GOMAXPROCS(0)))
	if err != nil {
		b.Fatal(err)
	}
	s := New(dep, quietOpts(Options{}))
	defer s.Close()
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			if _, err := s.Search(Query{Code: []uint64{rng.Uint64()}, K: 50}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

func TestServerEndToEndHTTP(t *testing.T) {
	dep, codes, ds := testDeployment("v1", 400, 8, 16, 4, 3)
	s := New(dep, quietOpts(Options{ShadowRate: -1}))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (int, []byte) {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	// Vector query: encode-and-search must equal the oracle scan of h(x).
	x := ds.Point(7, nil)
	vecBody, _ := json.Marshal(map[string]any{"vector": x, "k": 5})
	status, body := post("/v1/search", string(vecBody))
	if status != 200 {
		t.Fatalf("vector search: status %d: %s", status, body)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Model != "v1" {
		t.Fatalf("served by %q, want v1", sr.Model)
	}
	q := dep.Model.Encode(onePoint{x}, 1).Code(0)
	want := retrieval.TopKHammingDist(codes, q, 5)
	if len(sr.Neighbors) != len(want) {
		t.Fatalf("%d neighbors, want %d", len(sr.Neighbors), len(want))
	}
	for i, n := range sr.Neighbors {
		if n.Index != want[i].Index || n.Dist != want[i].Dist {
			t.Fatalf("neighbor %d: %+v want %+v", i, n, want[i])
		}
	}

	// Raw-code query for the same code must agree.
	codeBody, _ := json.Marshal(map[string]any{"code": FormatCode(q), "k": 5})
	status, body = post("/v1/search", string(codeBody))
	if status != 200 {
		t.Fatalf("code search: status %d: %s", status, body)
	}
	var sr2 searchResponse
	json.Unmarshal(body, &sr2)
	if len(sr2.Neighbors) != len(sr.Neighbors) {
		t.Fatal("raw-code search disagrees with vector search")
	}
	for i := range sr.Neighbors {
		if sr.Neighbors[i] != sr2.Neighbors[i] {
			t.Fatal("raw-code search disagrees with vector search")
		}
	}

	// Health and stats.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Queries != 2 || st.LiveVersion != "v1" || st.IndexN != 400 || st.IndexShards != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

// onePoint adapts a single vector to sgd.Points.
type onePoint struct{ x []float64 }

func (p onePoint) NumPoints() int { return 1 }
func (p onePoint) Point(i int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(p.x))
	}
	copy(dst, p.x)
	return dst
}

func TestServerValidation(t *testing.T) {
	dep, _, _ := testDeployment("v1", 100, 8, 16, 2, 4)
	s := New(dep, quietOpts(Options{MaxK: 50}))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{`, 400},
		{"empty", `{}`, 400},
		{"both vector and code", `{"vector":[1,2,3,4,5,6,7,8],"code":["0x1"]}`, 400},
		{"negative k", `{"code":["0x1"],"k":-1}`, 400},
		{"k over max", `{"code":["0x1"],"k":51}`, 400},
		{"wrong vector dims", `{"vector":[1,2,3]}`, 400},
		{"wrong code width", `{"code":["0x1","0x2"]}`, 400},
		{"bits above L", `{"code":["0x10000"]}`, 400},
		{"non-hex code", `{"code":["zz"]}`, 400},
		{"valid raw code", `{"code":["0xffff"]}`, 200},
		{"valid k at max", `{"code":["0x1"],"k":50}`, 200},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewBufferString(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

func TestHotSwapUnderLoad(t *testing.T) {
	depA, codesA, _ := testDeployment("a", 300, 8, 16, 2, 5)
	depB, codesB, _ := testDeployment("b", 350, 8, 16, 3, 6)
	oracle := map[string]*retrieval.Codes{"a": codesA, "b": codesB}

	s := New(depA, quietOpts(Options{ShadowRate: -1}))
	defer s.Close()

	const clients, perClient = 8, 60
	var wrong, failed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var sawB atomic.Bool
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				q := []uint64{rng.Uint64() & 0xFFFF}
				rs, err := s.Search(Query{Code: q, K: 7})
				if err != nil {
					failed.Add(1)
					continue
				}
				if rs.Version == "b" {
					sawB.Store(true)
				}
				// The response must be internally consistent: exactly the
				// oracle scan of whichever version served it.
				want := retrieval.TopKHammingDist(oracle[rs.Version], q, 7)
				if len(rs.Neighbors) != len(want) {
					wrong.Add(1)
					continue
				}
				for j := range want {
					if rs.Neighbors[j] != want[j] {
						wrong.Add(1)
						break
					}
				}
			}
		}(c)
	}
	// Swap back and forth while the clients hammer.
	go func() {
		deps := []*Deployment{depB, depA}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.Swap(deps[i%2])
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	if failed.Load() != 0 {
		t.Fatalf("%d searches failed during hot swap", failed.Load())
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d responses inconsistent with their deployment", wrong.Load())
	}
	if !sawB.Load() {
		t.Log("warning: no request observed deployment b (swap raced ahead)")
	}
	if st := s.Stats(); st.Queries != clients*perClient {
		t.Fatalf("stats counted %d queries, want %d", st.Queries, clients*perClient)
	}
}

func TestWorkConservingFlushDoesNotWait(t *testing.T) {
	dep, _, _ := testDeployment("v1", 2000, 8, 16, 2, 8)
	s := New(dep, quietOpts(Options{ShadowRate: -1}))
	defer s.Close()
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := s.Search(Query{Code: []uint64{uint64(i)}, K: 3}); err != nil {
			t.Fatal(err)
		}
	}
	// 20 sequential single-stream queries over 2000 codes: each scans on
	// its caller, so this is well under a second; any per-request hold
	// would show up immediately.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("single-stream latency suggests a lone query is held: %v", elapsed)
	}
}

func TestShadowAgreementAndPromote(t *testing.T) {
	dep, _, ds := testDeployment("live", 300, 8, 16, 2, 9)
	s := New(dep, quietOpts(Options{ShadowRate: 1}))
	defer s.Close()

	// Identical candidate: agreement must be exactly 1.
	twin, err := NewDeployment("twin", dep.Model.Clone(), dep.Index)
	if err != nil {
		t.Fatal(err)
	}
	s.SetShadow(twin)
	for i := 0; i < 20; i++ {
		if _, err := s.Search(Query{Vector: ds.Point(i, nil), K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	s.shadowWG.Wait()
	st := s.Stats()
	if st.ShadowQueries != 20 {
		t.Fatalf("shadow saw %d queries, want 20", st.ShadowQueries)
	}
	if st.ShadowAgreement < 0.999 {
		t.Fatalf("identical shadow agreement %v, want 1", st.ShadowAgreement)
	}

	// A different candidate model: agreement is measured, then promoted.
	cand, codes2, _ := testDeployment("cand", 300, 8, 16, 2, 10)
	_ = codes2
	s.SetShadow(cand)
	if got := s.Stats().ShadowQueries; got != 0 {
		t.Fatalf("SetShadow must reset counters, got %d", got)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Search(Query{Vector: ds.Point(i, nil), K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	s.shadowWG.Wait()
	if got := s.Stats().ShadowQueries; got != 10 {
		t.Fatalf("shadow saw %d queries, want 10", got)
	}
	promoted, err := s.PromoteShadow()
	if err != nil {
		t.Fatal(err)
	}
	if promoted.Version != "cand" || version(s.Live()) != "cand" || s.shadow.Load() != nil {
		t.Fatalf("promote: live=%q shadow=%v", version(s.Live()), s.shadow.Load())
	}
	if _, err := s.PromoteShadow(); err == nil {
		t.Fatal("second promote should fail: no shadow")
	}
}

func TestSwapAndShadowOverHTTP(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, n, d, l int, seed int64) (string, string) {
		ds := dataset.GISTLike(n, d, 4, seed)
		m := testModel(d, l, seed+50)
		codes := m.Encode(ds, 1)
		ip := filepath.Join(dir, name+".idx")
		mp := filepath.Join(dir, name+".json")
		fi, _ := os.Create(ip)
		if err := codes.Save(fi); err != nil {
			t.Fatal(err)
		}
		fi.Close()
		fm, _ := os.Create(mp)
		if err := m.Save(fm); err != nil {
			t.Fatal(err)
		}
		fm.Close()
		return ip, mp
	}
	ip1, mp1 := write("v1", 120, 8, 16, 11)
	ip2, mp2 := write("v2", 140, 8, 16, 12)

	dep, err := LoadDeployment("v1", ip1, mp1, IndexConfig{Shards: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(dep, quietOpts(Options{Shards: 2, ShadowRate: 1}))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (int, map[string]string) {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out := map[string]string{}
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	// Shadow v2, then promote it.
	status, out := post("/v1/shadow", fmt.Sprintf(`{"version":"v2","index":%q,"model":%q}`, ip2, mp2))
	if status != 200 || out["shadow"] != "v2" {
		t.Fatalf("shadow: %d %v", status, out)
	}
	status, out = post("/v1/promote", `{}`)
	if status != 200 || out["live"] != "v2" {
		t.Fatalf("promote: %d %v", status, out)
	}
	if st := s.Stats(); st.LiveVersion != "v2" || st.IndexN != 140 {
		t.Fatalf("after promote: %+v", st)
	}

	// Swap straight back to v1 via the admin endpoint.
	status, out = post("/v1/swap", fmt.Sprintf(`{"version":"v1","index":%q,"model":%q}`, ip1, mp1))
	if status != 200 || out["live"] != "v1" || out["previous"] != "v2" {
		t.Fatalf("swap: %d %v", status, out)
	}

	// A bad index path must not disturb the live deployment.
	status, _ = post("/v1/swap", `{"version":"x","index":"/nonexistent"}`)
	if status != 400 {
		t.Fatalf("swap with bad path: status %d", status)
	}
	if version(s.Live()) != "v1" {
		t.Fatal("failed swap replaced the live deployment")
	}
}

func TestDeploymentModelIndexMismatch(t *testing.T) {
	m := testModel(8, 16, 13)
	codes := retrieval.NewCodes(10, 24)
	if _, err := NewDeployment("x", m, NewShardedIndex(codes, 1)); err == nil {
		t.Fatal("expected L mismatch error")
	}
}

func TestSearchAfterClose(t *testing.T) {
	dep, _, _ := testDeployment("v1", 100, 8, 16, 1, 14)
	s := New(dep, quietOpts(Options{}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	if _, err := s.Search(Query{Code: []uint64{1}, K: 3}); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	// Over HTTP a closed server is unavailable (503), not failing (500).
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewBufferString(`{"code":["0x1"],"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 503 || body.Error != ErrClosed.Error() {
		t.Fatalf("closed server answered %d %q, want 503 %q", resp.StatusCode, body.Error, ErrClosed.Error())
	}
	s.Close() // second Close must be a no-op, not a panic
}

func TestCloseDuringConcurrentSearches(t *testing.T) {
	dep, codes, _ := testDeployment("v1", 1000, 8, 16, 2, 21)
	s := New(dep, quietOpts(Options{ShadowRate: 1}))
	twin, err := NewDeployment("twin", nil, dep.Index)
	if err != nil {
		t.Fatal(err)
	}
	s.SetShadow(twin)

	// Every call returns the oracle's answer or ErrClosed, and a call that
	// starts after Close has returned never succeeds.
	var closeReturned atomic.Bool
	var served, wrong, late atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for {
				q := []uint64{rng.Uint64() & 0xFFFF}
				after := closeReturned.Load()
				rs, err := s.Search(Query{Code: q, K: 5})
				if err == ErrClosed {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				served.Add(1)
				if after {
					late.Add(1)
				}
				if !slices.Equal(rs.Neighbors, retrieval.TopKHammingDist(codes, q, 5)) {
					wrong.Add(1)
				}
			}
		}(c)
	}
	time.Sleep(10 * time.Millisecond)
	s.Close()
	closeReturned.Store(true)
	// Close waited for every in-flight search and its mirroring, so the
	// shadow has already seen every query that was served.
	mirrored := s.Stats().ShadowQueries
	wg.Wait()
	if late.Load() != 0 {
		t.Fatalf("%d searches succeeded after Close returned", late.Load())
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d responses differ from the oracle scan", wrong.Load())
	}
	if mirrored != served.Load() {
		t.Fatalf("shadow saw %d queries by the time Close returned, %d were served", mirrored, served.Load())
	}
}

func TestRawCodeOnlyDeployment(t *testing.T) {
	_, codes, _ := testDeployment("v1", 100, 8, 16, 1, 15)
	dep, err := NewDeployment("raw", nil, NewShardedIndex(codes, 2))
	if err != nil {
		t.Fatal(err)
	}
	s := New(dep, quietOpts(Options{}))
	defer s.Close()
	if _, err := s.Search(Query{Vector: make([]float64, 8), K: 3}); err == nil {
		t.Fatal("vector query against model-less deployment should fail")
	}
	rs, err := s.Search(Query{Code: []uint64{0xABCD}, K: 3})
	if err != nil || len(rs.Neighbors) != 3 {
		t.Fatalf("raw code query: %v %v", err, rs)
	}
}

// TestServerSearchAllocs pins the allocations of a raw-code Server.Search:
// the code reaches Index.Search as it came, with no one-row code set or
// per-batch result slice around it. A second shard adds the fan-out's
// goroutine.
func TestServerSearchAllocs(t *testing.T) {
	_, codes, _ := testDeployment("v", 500, 8, 16, 1, 20)
	for _, c := range []struct{ shards, max int }{{1, 6}, {2, 7}} {
		dep, err := NewDeployment("v", nil, NewShardedIndex(codes, c.shards))
		if err != nil {
			t.Fatal(err)
		}
		s := New(dep, quietOpts(Options{}))
		q := Query{Code: []uint64{0xABCD}, K: 10}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := s.Search(q); err != nil {
				t.Fatal(err)
			}
		})
		s.Close()
		if allocs > float64(c.max) {
			t.Errorf("shards=%d: %.1f allocs per Search, want at most %d", c.shards, allocs, c.max)
		}
	}
}

func TestMIHDeploymentMatchesLinear(t *testing.T) {
	_, codes, ds := testDeployment("v", 600, 16, 32, 1, 16)
	mih, err := BuildIndex(codes, IndexConfig{Kind: "mih"})
	if err != nil {
		t.Fatal(err)
	}
	if mih.Kind() != "mih" || mih.N() != codes.N || mih.L() != codes.L {
		t.Fatalf("mih index shape: kind=%s N=%d L=%d", mih.Kind(), mih.N(), mih.L())
	}
	lin := NewShardedIndex(codes, 3)
	queries := testModel(16, 32, 17).Encode(ds, 1)
	for qi := 0; qi < 20; qi++ {
		q := queries.Code(qi)
		want := lin.Search(q, 10)
		got := mih.Search(q, 10)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: %+v != %+v", qi, i, got[i], want[i])
			}
		}
	}
}

func TestStreamingMIHAddSearchable(t *testing.T) {
	ds := dataset.GISTLike(300, 8, 4, 18)
	m := testModel(8, 16, 19)
	codes := m.Encode(ds, 1)
	first := subCodes(codes, 0, 200)
	extra := subCodes(codes, 200, 300)

	sm, err := NewStreamingMIH(first, 0)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment("v1", m, sm)
	if err != nil {
		t.Fatal(err)
	}
	s := New(dep, quietOpts(Options{IndexKind: "mih"}))
	defer s.Close()

	q := codes.Code(250) // not yet ingested
	pre, err := s.Search(Query{Code: q, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Streaming ingest between "training iterations": the same server, no
	// swap, must see the new points on the very next query.
	if err := sm.Add(extra); err != nil {
		t.Fatal(err)
	}
	post, err := s.Search(Query{Code: q, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := retrieval.TopKHammingDist(codes, q, 5)
	for i := range want {
		if post.Neighbors[i] != want[i] {
			t.Fatalf("rank %d after Add: %+v want %+v (pre-Add %+v)",
				i, post.Neighbors[i], want[i], pre.Neighbors)
		}
	}
	// The query is a base point, so after ingest an exact match must exist
	// (possibly a lower-indexed duplicate code — ties order by index).
	if post.Neighbors[0].Dist != 0 {
		t.Fatalf("no exact match after Add: %+v", post.Neighbors[0])
	}
	if sm.N() != 300 {
		t.Fatalf("N after Add = %d, want 300", sm.N())
	}
}

func TestStatsReportIndexKindAndOccupancy(t *testing.T) {
	_, codes, _ := testDeployment("v", 200, 8, 16, 1, 20)

	lin, _ := NewDeployment("lin", nil, NewShardedIndex(codes, 2))
	s := New(lin, quietOpts(Options{}))
	st := s.Stats()
	s.Close()
	if st.IndexKind != "linear" || st.IndexShards != 2 || st.MIH != nil {
		t.Fatalf("linear stats: %+v", st)
	}

	sm, err := NewStreamingMIH(codes, 0)
	if err != nil {
		t.Fatal(err)
	}
	mih, _ := NewDeployment("mih", nil, sm)
	s = New(mih, quietOpts(Options{IndexKind: "mih"}))
	defer s.Close()
	st = s.Stats()
	if st.IndexKind != "mih" || st.IndexShards != 0 {
		t.Fatalf("mih stats: %+v", st)
	}
	if st.MIH == nil || st.MIH.Blocks < 1 || st.MIH.Buckets < 1 {
		t.Fatalf("mih occupancy missing: %+v", st.MIH)
	}
	want := sm.Occupancy()
	if *st.MIH != want {
		t.Fatalf("occupancy %+v, want %+v", *st.MIH, want)
	}
}

// subCodes copies rows [lo, hi) of src into a fresh Codes.
func subCodes(src *retrieval.Codes, lo, hi int) *retrieval.Codes {
	out := retrieval.NewCodes(hi-lo, src.L)
	for i := lo; i < hi; i++ {
		out.CopyCode(i-lo, src, i)
	}
	return out
}
