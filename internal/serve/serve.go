// Package serve is the online retrieval tier over the paper's packed binary
// codes: an in-memory sharded Hamming index behind a JSON HTTP API. Each
// request is one Index.Search on its own goroutine, and a linear index fans
// that lone query out over its shards, so concurrent requests scan
// concurrently on every core. The (model, index) pair hot-swaps atomically,
// and a shadow mode mirrors a sample of live queries to a candidate
// deployment and tracks agreement — the shadow/canary rollout the
// production-ML literature prescribes, applied to the paper's "serve Hamming
// search to millions of users" pitch.
package serve

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/binauto"
	"repro/internal/core"
	"repro/internal/retrieval"
)

// Index is the retrieval engine behind a Deployment. Every implementation
// must be immutable-or-snapshotted (safe for concurrent searches while a
// writer publishes new state) and tie-exact: Search returns exactly the
// (Dist, Index)-ordered top-k the linear TopKHammingDist oracle would, so
// the serving tier can swap engines without changing a single result.
type Index interface {
	// Search answers one query with the exact (Dist, Index)-ordered top-k.
	Search(query []uint64, k int) []retrieval.Neighbor
	// L reports the code length in bits.
	L() int
	// N reports the number of indexed codes.
	N() int
	// Words reports the packed words per code.
	Words() int
	// Kind names the engine ("linear", "mih") for stats and logs.
	Kind() string
}

// ShardedIndex splits a packed code set into row ranges that Search scans
// concurrently, so a lone query fans out over min(shards, GOMAXPROCS) cores.
// The shard lists merge with retrieval.MergeTopK, the serial scan's tie
// rule, so a sharded search equals the unsharded scan for any shard count.
// Shards alias the original backing array (no copy) and are immutable once
// built; swapping in new codes means building a new index.
type ShardedIndex struct {
	l, n   int
	shards []*retrieval.Codes
	offs   []int
}

// NewShardedIndex slices codes into at most shards row ranges (shards < 1
// means 1; empty code sets get one empty shard).
func NewShardedIndex(codes *retrieval.Codes, shards int) *ShardedIndex {
	if shards < 1 {
		shards = 1
	}
	if shards > codes.N {
		shards = max(codes.N, 1)
	}
	ix := &ShardedIndex{l: codes.L, n: codes.N}
	per := (codes.N + shards - 1) / shards
	if per == 0 {
		per = 1
	}
	for lo := 0; lo < codes.N || len(ix.shards) == 0; lo += per {
		hi := min(lo+per, codes.N)
		ix.shards = append(ix.shards, &retrieval.Codes{
			N: hi - lo, L: codes.L, Words: codes.Words,
			Data: codes.Data[lo*codes.Words : hi*codes.Words],
		})
		ix.offs = append(ix.offs, lo)
		if hi == codes.N {
			break
		}
	}
	return ix
}

// Shards reports the shard count, the most cores one query's scan spans.
func (ix *ShardedIndex) Shards() int { return len(ix.shards) }

// L reports the code length in bits.
func (ix *ShardedIndex) L() int { return ix.l }

// N reports the number of indexed codes.
func (ix *ShardedIndex) N() int { return ix.n }

// Words reports the packed words per code.
func (ix *ShardedIndex) Words() int { return (ix.l + 63) / 64 }

// Kind names the engine.
func (ix *ShardedIndex) Kind() string { return "linear" }

// Search answers one query, scanning the shards concurrently over
// min(shards, GOMAXPROCS) goroutines, each into a slot of its own; after the
// join the shard lists merge tie-exactly. The result equals
// retrieval.TopKHammingDist over the whole code set for any shard count.
func (ix *ShardedIndex) Search(query []uint64, k int) []retrieval.Neighbor {
	parts := make([][]retrieval.Neighbor, len(ix.shards))
	core.ParallelChunks(len(parts), core.Cores(-1), func(_, lo, hi int) {
		for sh := lo; sh < hi; sh++ {
			parts[sh] = retrieval.OffsetNeighbors(
				retrieval.TopKHammingDist(ix.shards[sh], query, k), ix.offs[sh])
		}
	})
	return retrieval.MergeTopK(parts, k)
}

// StreamingMIH is the sublinear engine: a multi-index hashing table set
// (retrieval.MIHIndex) behind an atomic snapshot pointer. Searches load the
// snapshot once and run entirely against it; Add builds a copy-on-write
// child snapshot and publishes it — the same swap discipline the Deployment
// pointer uses, so freshly encoded points become searchable between training
// iterations without a search ever observing a half-built table.
type StreamingMIH struct {
	snap atomic.Pointer[retrieval.MIHIndex]
	mu   sync.Mutex // serialises Add; searches never take it
}

// NewStreamingMIH builds the initial snapshot over codes. blocks ≤ 0 picks
// the substring width automatically from N and L.
func NewStreamingMIH(codes *retrieval.Codes, blocks int) (*StreamingMIH, error) {
	ix, err := retrieval.NewMIHIndex(codes, blocks)
	if err != nil {
		return nil, err
	}
	s := &StreamingMIH{}
	s.snap.Store(ix)
	return s, nil
}

// Add appends freshly encoded points: it builds a child snapshot sharing
// untouched posting lists with the current one and publishes it atomically.
// In-flight searches finish on the snapshot they loaded; new searches see
// the appended points. Ids of the new points start at the previous N.
func (s *StreamingMIH) Add(extra *retrieval.Codes) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := s.snap.Load().WithAppended(extra)
	if err != nil {
		return err
	}
	s.snap.Store(next)
	return nil
}

// L reports the code length in bits.
func (s *StreamingMIH) L() int { return s.snap.Load().L() }

// N reports the number of indexed codes in the current snapshot.
func (s *StreamingMIH) N() int { return s.snap.Load().N() }

// Words reports the packed words per code.
func (s *StreamingMIH) Words() int { return s.snap.Load().Words() }

// Kind names the engine.
func (s *StreamingMIH) Kind() string { return "mih" }

// Occupancy reports the current snapshot's posting-list statistics.
func (s *StreamingMIH) Occupancy() retrieval.MIHOccupancy { return s.snap.Load().Occupancy() }

// Search answers one query against the current snapshot.
func (s *StreamingMIH) Search(query []uint64, k int) []retrieval.Neighbor {
	return s.snap.Load().Search(query, k)
}

// IndexConfig selects and sizes the engine BuildIndex constructs.
type IndexConfig struct {
	// Kind is "linear" (sharded exact scan, the default) or "mih"
	// (multi-index hashing, sublinear at production N).
	Kind string
	// Shards is the number of row ranges the linear engine cuts the codes
	// into: Search scans a query's shards concurrently, so a lone query uses
	// min(Shards, GOMAXPROCS) cores (< 1 means 1).
	Shards int
	// MIHBlocks is the substring table count for the mih engine (0 = pick
	// from N and L).
	MIHBlocks int
}

// BuildIndex constructs the configured engine over a packed code set.
func BuildIndex(codes *retrieval.Codes, cfg IndexConfig) (Index, error) {
	switch cfg.Kind {
	case "", "linear":
		return NewShardedIndex(codes, cfg.Shards), nil
	case "mih":
		return NewStreamingMIH(codes, cfg.MIHBlocks)
	default:
		return nil, fmt.Errorf("serve: unknown index kind %q (want linear or mih)", cfg.Kind)
	}
}

// Deployment is one immutable (model, index) pair. Model may be nil, in
// which case only raw-code queries can be served. Deployments are swapped
// atomically: in-flight searches keep the snapshot they started with, so a
// swap never tears a request across two versions.
type Deployment struct {
	Version string
	Model   *binauto.Model
	Index   Index
}

// NewDeployment validates that model and index agree on the code length.
func NewDeployment(version string, model *binauto.Model, index Index) (*Deployment, error) {
	if index == nil {
		return nil, errors.New("serve: deployment needs an index")
	}
	if model != nil && model.L() != index.L() {
		return nil, fmt.Errorf("serve: model emits %d-bit codes but index holds %d-bit codes",
			model.L(), index.L())
	}
	return &Deployment{Version: version, Model: model, Index: index}, nil
}

// LoadDeployment reads an index file (written by retrieval.Codes.Save) and
// an optional model JSON from disk, builds the engine cfg selects, and
// enforces maxIndexBytes (≤ 0 means retrieval.DefaultMaxIndexBytes) against
// the index header before any large allocation.
func LoadDeployment(version, indexPath, modelPath string, cfg IndexConfig, maxIndexBytes int64) (*Deployment, error) {
	f, err := os.Open(indexPath)
	if err != nil {
		return nil, fmt.Errorf("serve: open index: %w", err)
	}
	defer f.Close()
	codes, err := retrieval.LoadCodesLimit(f, maxIndexBytes)
	if err != nil {
		return nil, err
	}
	var model *binauto.Model
	if modelPath != "" {
		mf, err := os.Open(modelPath)
		if err != nil {
			return nil, fmt.Errorf("serve: open model: %w", err)
		}
		defer mf.Close()
		if model, err = binauto.Load(mf); err != nil {
			return nil, err
		}
	}
	index, err := BuildIndex(codes, cfg)
	if err != nil {
		return nil, err
	}
	return NewDeployment(version, model, index)
}

// Options tune the server. Zero values mean the documented defaults. Two
// settings are fixed: a request that omits k gets 10 results (defaultK), and
// the sampling of mirrored queries is seeded with 1 (shadowSeed), so a run
// mirrors the same queries every time.
type Options struct {
	// Shards is the per-query fan-out width used when the server itself
	// builds linear indexes (swap and shadow endpoints). Default
	// runtime.GOMAXPROCS(0), so a lone query's scan spans every core.
	Shards int
	// IndexKind selects the engine the admin endpoints build when loading
	// index files: "linear" (default) or "mih".
	IndexKind string
	// MIHBlocks sizes the mih engine's substring tables (0 = pick from N
	// and L).
	MIHBlocks int
	// MaxK bounds the per-request k. Default 1000.
	MaxK int
	// ShadowRate is the fraction of live queries mirrored to the shadow
	// deployment, if one is set. Zero mirrors nothing; clamped to [0, 1].
	ShadowRate float64
	// MaxIndexBytes is the budget the swap/shadow admin endpoints enforce
	// when loading index files. ≤ 0 means retrieval.DefaultMaxIndexBytes.
	MaxIndexBytes int64
	// Logf receives shadow-agreement and swap log lines. Default log.Printf.
	Logf func(format string, args ...any)
}

// defaultK is the k of a request that omits it, and shadowSeed seeds the
// sampling of mirrored queries.
const (
	defaultK   = 10
	shadowSeed = 1
)

func (o Options) withDefaults() Options {
	if o.Shards < 1 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.IndexKind == "" {
		o.IndexKind = "linear"
	}
	if o.MaxK <= 0 {
		o.MaxK = 1000
	}
	o.ShadowRate = min(max(o.ShadowRate, 0), 1)
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Query is one validated search request: exactly one of Vector (to be
// encoded by the live model) or Code (raw packed words) is set.
type Query struct {
	Vector []float64
	Code   []uint64
	K      int
}

// ResultSet is the answer to one Query.
type ResultSet struct {
	Version   string               // deployment that served it
	Neighbors []retrieval.Neighbor // sorted by (dist, index)
}

// apiError is an error with an HTTP status.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: 400, msg: fmt.Sprintf(format, args...)}
}

// ErrClosed is returned by Search once Close has been called; over HTTP it
// is a 503, since the server is going away rather than failing.
var ErrClosed error = &apiError{status: 503, msg: "serve: server closed"}

// shadowLogEvery throttles shadow-agreement log lines: one line each time the
// cumulative mirrored-query count reaches a multiple of this.
const shadowLogEvery = 100

// Stats is a snapshot of the server counters.
type Stats struct {
	LiveVersion   string `json:"live_version"`
	ShadowVersion string `json:"shadow_version,omitempty"`
	IndexN        int    `json:"index_n"`
	// IndexKind names the live engine; IndexShards is the linear engine's
	// shard count, which bounds how many cores one query's scan spans (0 for
	// other kinds); MIH is the mih engine's occupancy summary —
	// posting-list skew is what degrades its pruning, so operators watch the
	// max/mean list lengths here.
	IndexKind   string                  `json:"index_kind,omitempty"`
	IndexShards int                     `json:"index_shards,omitempty"`
	MIH         *retrieval.MIHOccupancy `json:"mih_occupancy,omitempty"`
	Queries     int64                   `json:"queries"`
	Errors      int64                   `json:"errors"`
	// Batches counts index scans and MeanBatch the queries per scan. Every
	// search scans on its own, so Batches equals Queries and MeanBatch is 1
	// once a query has been served; both keep their place in /v1/stats.
	Batches         int64   `json:"batches"`
	MeanBatch       float64 `json:"mean_batch"`
	ShadowQueries   int64   `json:"shadow_queries"`
	ShadowAgreement float64 `json:"shadow_agreement"` // mean overlap@k in [0,1]
}

// Server owns the live and shadow deployments. Each search runs on its
// caller's goroutine, so concurrent requests scan concurrently. All public
// methods are safe for concurrent use.
type Server struct {
	opts   Options
	live   atomic.Pointer[Deployment]
	shadow atomic.Pointer[Deployment]

	// Searches hold mu shared from admission to return; Close takes it
	// exclusively to set closed, so it waits out every in-flight search.
	mu     sync.RWMutex
	closed bool

	queries atomic.Int64
	errs    atomic.Int64

	shadowQueries atomic.Int64
	shadowOverlap atomic.Int64 // sum of per-query overlap in millionths

	shadowMu  sync.Mutex
	shadowRng *rand.Rand
	shadowWG  sync.WaitGroup
}

// New returns a server over the given live deployment.
func New(dep *Deployment, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		shadowRng: rand.New(rand.NewSource(shadowSeed)),
	}
	s.live.Store(dep)
	return s
}

// Close waits for in-flight searches and their shadow mirroring. Searches
// after Close fail with ErrClosed; a second Close is a no-op.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.shadowWG.Wait()
}

// WaitShadow blocks until all shadow mirroring registered so far has
// completed, so Stats reflects every query already answered. Useful before
// reading agreement numbers in tests and rollout tooling.
func (s *Server) WaitShadow() { s.shadowWG.Wait() }

// Live returns the current live deployment.
func (s *Server) Live() *Deployment { return s.live.Load() }

// Swap atomically replaces the live deployment and returns the previous one.
// In-flight searches finish on the snapshot they loaded, so no request is
// dropped or served by a torn (model, index) pair.
func (s *Server) Swap(dep *Deployment) *Deployment {
	old := s.live.Swap(dep)
	s.opts.Logf("serve: swapped live deployment %q -> %q (kind=%s N=%d)",
		version(old), dep.Version, dep.Index.Kind(), dep.Index.N())
	return old
}

// SetShadow installs (or, with nil, clears) the shadow deployment and resets
// the agreement counters so the numbers describe exactly one candidate.
func (s *Server) SetShadow(dep *Deployment) {
	s.shadow.Store(dep)
	s.shadowQueries.Store(0)
	s.shadowOverlap.Store(0)
	if dep != nil {
		s.opts.Logf("serve: shadow deployment %q installed (kind=%s N=%d)",
			dep.Version, dep.Index.Kind(), dep.Index.N())
	} else {
		s.opts.Logf("serve: shadow deployment cleared")
	}
}

// PromoteShadow swaps the shadow deployment into live (the canary passed)
// and clears the shadow slot.
func (s *Server) PromoteShadow() (*Deployment, error) {
	dep := s.shadow.Load()
	if dep == nil {
		return nil, errors.New("serve: no shadow deployment to promote")
	}
	s.SetShadow(nil)
	s.Swap(dep)
	return dep, nil
}

func version(d *Deployment) string {
	if d == nil {
		return ""
	}
	return d.Version
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	live := s.live.Load()
	st := Stats{
		LiveVersion:   version(live),
		ShadowVersion: version(s.shadow.Load()),
		Queries:       s.queries.Load(),
		Errors:        s.errs.Load(),
		ShadowQueries: s.shadowQueries.Load(),
	}
	st.Batches = st.Queries
	if live != nil {
		st.IndexN = live.Index.N()
		st.IndexKind = live.Index.Kind()
		switch ix := live.Index.(type) {
		case *ShardedIndex:
			st.IndexShards = ix.Shards()
		case *StreamingMIH:
			occ := ix.Occupancy()
			st.MIH = &occ
		}
	}
	if st.Batches > 0 {
		st.MeanBatch = 1
	}
	if st.ShadowQueries > 0 {
		st.ShadowAgreement = float64(s.shadowOverlap.Load()) / 1e6 / float64(st.ShadowQueries)
	}
	return st
}

// validate checks a query against the deployment snapshot that will serve
// it, resolving K defaults.
func (s *Server) validate(q *Query, dep *Deployment) error {
	if dep == nil {
		return &apiError{status: 503, msg: "no deployment loaded"}
	}
	if (len(q.Vector) == 0) == (len(q.Code) == 0) {
		return badRequest("exactly one of vector and code must be set")
	}
	if q.K == 0 {
		q.K = defaultK
	}
	if q.K < 0 {
		return badRequest("k must be positive, got %d", q.K)
	}
	if q.K > s.opts.MaxK {
		return badRequest("k=%d exceeds the maximum %d", q.K, s.opts.MaxK)
	}
	if len(q.Vector) > 0 {
		if dep.Model == nil {
			return badRequest("deployment %q has no model: send a raw code", dep.Version)
		}
		if len(q.Vector) != dep.Model.D() {
			return badRequest("vector has %d dims, model wants %d", len(q.Vector), dep.Model.D())
		}
		return nil
	}
	if len(q.Code) != dep.Index.Words() {
		return badRequest("code has %d words, index wants %d (L=%d)",
			len(q.Code), dep.Index.Words(), dep.Index.L())
	}
	if top := dep.Index.L() % 64; top != 0 {
		if q.Code[len(q.Code)-1]>>uint(top) != 0 {
			return badRequest("code has bits set above L=%d", dep.Index.L())
		}
	}
	return nil
}

// Search runs one query through the full serving path on the calling
// goroutine: load the live deployment once, validate against it, encode a
// vector query with its model, and search its index, which fans a linear
// scan out over the shards. One snapshot serves both the validation and the
// scan, so a hot swap can never tear a request. This is the method the HTTP
// handler, the perf scenarios and the example all call, so every
// measurement exercises the real path.
func (s *Server) Search(q Query) (*ResultSet, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	dep := s.live.Load()
	if err := s.validate(&q, dep); err != nil {
		s.errs.Add(1)
		return nil, err
	}
	s.queries.Add(1)
	code := q.Code
	if len(q.Vector) > 0 {
		code = encode(dep.Model, q.Vector)
	}
	ns := dep.Index.Search(code, q.K)
	// Sample for the shadow before replying: the cheap synchronous part of
	// mirror (sampling, registering the background search) finishing first
	// means a client that got its answer can rely on the shadow counters
	// eventually covering its query — no window where neither is visible.
	s.mirror(dep, q, ns)
	return &ResultSet{Version: dep.Version, Neighbors: ns}, nil
}

// encode hashes x with model m into one packed code.
func encode(m *binauto.Model, x []float64) []uint64 {
	dst := retrieval.NewCodes(1, m.L())
	if m.L() <= 64 {
		dst.SetWord64(0, m.EncodePointWord(x))
		return dst.Code(0)
	}
	for l := 0; l < m.L(); l++ {
		dst.SetBit(0, l, m.EncodeBit(l, x))
	}
	return dst.Code(0)
}

// mirror sends a ShadowRate sample of the served queries to the shadow
// deployment on a background goroutine and accumulates agreement (overlap
// between the live and shadow top-k id sets). Vector queries are re-encoded
// by the candidate model — the whole point of shadowing a new model;
// raw-code queries are mirrored only when the code lengths agree.
func (s *Server) mirror(live *Deployment, q Query, liveNs []retrieval.Neighbor) {
	sh := s.shadow.Load()
	if sh == nil || s.opts.ShadowRate <= 0 {
		return
	}
	s.shadowMu.Lock()
	sampled := s.shadowRng.Float64() < s.opts.ShadowRate
	s.shadowMu.Unlock()
	if !sampled {
		return
	}
	if len(q.Vector) == 0 && len(q.Code) != sh.Index.Words() {
		return
	}
	if len(q.Vector) > 0 && (sh.Model == nil || len(q.Vector) != sh.Model.D()) {
		return
	}
	s.shadowWG.Add(1)
	go func() {
		defer s.shadowWG.Done()
		code := q.Code
		if len(q.Vector) > 0 {
			code = encode(sh.Model, q.Vector)
		}
		s.shadowOverlap.Add(int64(overlap(liveNs, sh.Index.Search(code, q.K)) * 1e6))
		// Log cumulative agreement, throttled to every shadowLogEvery mirrored
		// queries — one line per query would swamp the log at production QPS.
		if n := s.shadowQueries.Add(1); n%shadowLogEvery == 0 {
			agree := float64(s.shadowOverlap.Load()) / 1e6 / float64(n)
			s.opts.Logf("serve: shadow %q vs live %q: %d queries mirrored, cumulative agreement %.3f",
				sh.Version, live.Version, n, agree)
		}
	}()
}

// overlap is |a ∩ b| / max(|a|, |b|, 1) over the index sets — 1 when the
// candidate retrieves exactly the live ids, 0 when disjoint.
func overlap(a, b []retrieval.Neighbor) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[int]struct{}, len(a))
	for _, n := range a {
		set[n.Index] = struct{}{}
	}
	hit := 0
	for _, n := range b {
		if _, ok := set[n.Index]; ok {
			hit++
		}
	}
	return float64(hit) / float64(max(len(a), len(b)))
}
