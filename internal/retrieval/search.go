package retrieval

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/core"
	"repro/internal/sgd"
	"repro/internal/vec"
)

// Neighbor is one result of a top-k Hamming scan: a base index and its
// distance. Scans and merges keep neighbors sorted by (Dist, Index) — the
// deterministic total order every search entry point in this package obeys.
type Neighbor struct {
	Index int `json:"index"`
	Dist  int `json:"dist"`
}

// clampK resolves a requested result count against a base size: negative or
// zero k means an empty result (k is a request parameter once a server
// exists, so it must never panic), and k is capped at n.
func clampK(k, n int) int {
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// before reports whether a precedes b in the (Dist, Index) order.
func (a Neighbor) before(b Neighbor) bool {
	return a.Dist < b.Dist || (a.Dist == b.Dist && a.Index < b.Index)
}

// insertNeighbor inserts n into buf, which is sorted by (Dist, Index) and
// holds at most k entries; when buf is full, n replaces the last entry. The
// caller passes only an n that belongs in the result — len(buf) < k, or n
// precedes buf[k-1] — and makes that test inline, so a rejected candidate
// costs no call. The linear scan and the MIH re-rank both insert through it,
// so they share one tie rule. Bounded insertion into a sorted buffer beats a
// heap here: k is small (≤ 10⁴ in the paper's protocols) and, after the
// threshold test, insertions are rare.
func insertNeighbor(buf []Neighbor, k int, n Neighbor) []Neighbor {
	lo, hi := 0, len(buf)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if buf[m].before(n) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if len(buf) < k {
		buf = append(buf, Neighbor{})
	}
	copy(buf[lo+1:], buf[lo:len(buf)-1])
	buf[lo] = n
	return buf
}

// kthDist is the distance a row must beat to enter a top-k buffer: the k-th
// best so far once buf is full, no bound before that. A row at exactly this
// distance comes later in index order than every row kept, so it loses.
func kthDist(buf []Neighbor, k int) int {
	if len(buf) < k {
		return math.MaxInt
	}
	return buf[k-1].Dist
}

// scanHamming returns the k rows of base nearest to query, sorted by
// (distance, index). It is a kernel over the flat Data array: each row's
// distance is tested against the k-th best before any bookkeeping, and only a
// row that beats it is inserted — about k·ln(N/k) rows on random codes.
// One-word codes (L ≤ 64, every code this repository trains or serves) run
// four rows per step straight off Data with one min test for all four; wider
// codes stride Data by Words. The caller has checked the query width and
// clamped k to [0, N].
func scanHamming(base *Codes, query []uint64, k int) []Neighbor {
	buf := make([]Neighbor, 0, k)
	if k == 0 {
		return buf
	}
	if base.Words == 1 {
		return scanOneWord(base.Data[:base.N], query[0], k, buf)
	}
	w := base.Words
	data := base.Data[:base.N*w]
	worst := math.MaxInt
	for i := 0; i < base.N; i++ {
		d := 0
		for j, x := range data[i*w : (i+1)*w] {
			d += bits.OnesCount64(x ^ query[j])
		}
		if d < worst {
			buf = insertNeighbor(buf, k, Neighbor{Index: i, Dist: d})
			worst = kthDist(buf, k)
		}
	}
	return buf
}

// scanOneWord is scanHamming's one-word body.
func scanOneWord(data []uint64, q uint64, k int, buf []Neighbor) []Neighbor {
	worst := math.MaxInt
	i := 0
	for ; i+4 <= len(data); i += 4 {
		c := data[i : i+4 : i+4]
		d0 := bits.OnesCount64(c[0] ^ q)
		d1 := bits.OnesCount64(c[1] ^ q)
		d2 := bits.OnesCount64(c[2] ^ q)
		d3 := bits.OnesCount64(c[3] ^ q)
		if min(d0, d1, d2, d3) >= worst {
			continue
		}
		for j, d := range [4]int{d0, d1, d2, d3} {
			if d < worst {
				buf = insertNeighbor(buf, k, Neighbor{Index: i + j, Dist: d})
				worst = kthDist(buf, k)
			}
		}
	}
	for ; i < len(data); i++ {
		if d := bits.OnesCount64(data[i] ^ q); d < worst {
			buf = insertNeighbor(buf, k, Neighbor{Index: i, Dist: d})
			worst = kthDist(buf, k)
		}
	}
	return buf
}

// candIndices extracts the index column of a candidate buffer.
func candIndices(buf []Neighbor) []int {
	out := make([]int, len(buf))
	for i, c := range buf {
		out[i] = c.Index
	}
	return out
}

// MergeTopK merges per-part top-k candidate lists, each sorted by
// (Dist, Index) and over disjoint index ranges, into one global top-k in the
// same order. It walks the part heads, taking the least each step, so it
// costs O(k·len(parts)) and never re-sorts. This is the exact tie rule the
// serial scan maintains, so a sharded scan (serve.ShardedIndex), with each
// part's indices already offset into the global id space, merges without
// changing any result. k < 0 keeps everything.
func MergeTopK(parts [][]Neighbor, k int) []Neighbor {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if k < 0 || k > total {
		k = total
	}
	out := make([]Neighbor, k)
	heads := make([]int, len(parts))
	for i := range out {
		best := -1
		var b Neighbor
		for j, p := range parts {
			if h := heads[j]; h < len(p) && (best < 0 || p[h].before(b)) {
				best, b = j, p[h]
			}
		}
		out[i] = b
		heads[best]++
	}
	return out
}

// OffsetNeighbors shifts every index by off, mapping shard-local results into
// a global id space before MergeTopK.
func OffsetNeighbors(ns []Neighbor, off int) []Neighbor {
	for i := range ns {
		ns[i].Index += off
	}
	return ns
}

// TopKHammingDist returns the k base codes nearest to query in Hamming
// distance with their distances, sorted by (distance, index). k ≤ 0 returns
// an empty slice. The linear scan over packed words is exactly the search
// the paper motivates: Hamming distances "at a vastly faster speed and
// smaller memory" than Euclidean. A query whose word count differs from the
// base's panics, as HammingWords does, whenever the base is non-empty.
func TopKHammingDist(base *Codes, query []uint64, k int) []Neighbor {
	if base.N > 0 {
		checkWidth(base.Words, len(query))
	}
	return scanHamming(base, query, clampK(k, base.N))
}

// TopKHamming returns the indices of the k base codes nearest to query in
// Hamming distance, ties broken by lower index (deterministic). k ≤ 0
// returns an empty slice.
func TopKHamming(base *Codes, query []uint64, k int) []int {
	return candIndices(TopKHammingDist(base, query, k))
}

// AllTopKHamming runs TopKHamming for every query code, fanned out over
// workers goroutines (0/1 serial, < 0 every core). Queries are independent,
// so the result equals the serial per-query loop for any worker count. This
// is the batch shape Validation.Score and the retrieval drivers use; each
// query's base scan stays serial because the query fan-out already saturates
// the pool.
func AllTopKHamming(base, queries *Codes, k, workers int) [][]int {
	out := make([][]int, queries.N)
	core.ParallelChunks(queries.N, core.Cores(workers), func(_, lo, hi int) {
		for q := lo; q < hi; q++ {
			out[q] = TopKHamming(base, queries.Code(q), k)
		}
	})
	return out
}

// TopKEuclidean returns the indices of the k base points nearest to query in
// Euclidean distance (the exact ground truth of §8.1), ties broken by lower
// index. k ≤ 0 returns an empty slice.
func TopKEuclidean(base sgd.Points, query []float64, k int) []int {
	n := base.NumPoints()
	k = clampK(k, n)
	if k == 0 {
		return []int{}
	}
	type cand struct {
		idx  int
		dist float64
	}
	buf := make([]cand, 0, k)
	worst := -1.0
	tmp := make([]float64, len(query))
	for i := 0; i < n; i++ {
		d := vec.SqDist(base.Point(i, tmp), query)
		if len(buf) == k && d >= worst {
			continue
		}
		pos := sort.Search(len(buf), func(j int) bool {
			return buf[j].dist > d
		})
		if len(buf) < k {
			buf = append(buf, cand{})
		}
		copy(buf[pos+1:], buf[pos:len(buf)-1])
		buf[pos] = cand{i, d}
		worst = buf[len(buf)-1].dist
	}
	out := make([]int, len(buf))
	for i, c := range buf {
		out[i] = c.idx
	}
	return out
}

// GroundTruth computes, for every query row, the K exact Euclidean nearest
// base points, with the queries fanned out over workers goroutines
// (core.Cores semantics). Queries are independent, so the result is identical
// for any worker count. It is O(Q·N·D); the experiment drivers scale Q and N
// so this stays affordable.
func GroundTruth(base sgd.Points, queries sgd.Points, k, workers int) [][]int {
	nq := queries.NumPoints()
	out := make([][]int, nq)
	d := pointsDim(queries)
	core.ParallelChunks(nq, core.Cores(workers), func(_, lo, hi int) {
		buf := make([]float64, d)
		for q := lo; q < hi; q++ {
			out[q] = TopKEuclidean(base, queries.Point(q, buf), k)
		}
	})
	return out
}

func pointsDim(p sgd.Points) int {
	if p.NumPoints() == 0 {
		return 0
	}
	return len(p.Point(0, nil))
}

// Precision computes the paper's retrieval precision: for each query, the
// fraction of the k Hamming-retrieved points that are among the K true
// Euclidean neighbours, averaged over queries. A query with an empty
// retrieved list (k = 0 requests are legal) contributes zero precision.
// Membership is tested against a sorted copy of the truth list kept in one
// buffer reused across queries, so the inner loop allocates nothing (the
// per-query map this replaces was the scoring hot spot at large Q).
func Precision(truth [][]int, retrieved [][]int) float64 {
	if len(truth) != len(retrieved) {
		panic("retrieval: Precision length mismatch")
	}
	if len(truth) == 0 {
		return 0
	}
	var member []int
	var total float64
	for q := range truth {
		if len(retrieved[q]) == 0 {
			continue
		}
		member = append(member[:0], truth[q]...)
		sort.Ints(member)
		hit := 0
		for _, i := range retrieved[q] {
			if p := sort.SearchInts(member, i); p < len(member) && member[p] == i {
				hit++
			}
		}
		total += float64(hit) / float64(len(retrieved[q]))
	}
	return total / float64(len(truth))
}

// RankOfTrueNN returns the Hamming rank of base code trueIdx for the given
// query code, following the paper's tie rule for recall@R: "in case of tied
// distances, we place the query as top rank", i.e. rank = 1 + #(points
// strictly closer).
func RankOfTrueNN(base *Codes, query []uint64, trueIdx int) int {
	d := HammingWords(base.Code(trueIdx), query)
	rank := 1
	for i := 0; i < base.N; i++ {
		if i != trueIdx && HammingWords(base.Code(i), query) < d {
			rank++
		}
	}
	return rank
}

// RecallAtR computes recall@R for each requested R: the fraction of queries
// whose true nearest neighbour (trueNN[q], an index into base) is ranked
// within the top R positions by Hamming distance. R ≤ 0 entries yield 0
// (every rank is ≥ 1), so callers forwarding request parameters need no
// special casing.
func RecallAtR(base *Codes, queries *Codes, trueNN []int, rs []int) []float64 {
	if queries.N != len(trueNN) {
		panic("retrieval: RecallAtR needs one true NN per query")
	}
	ranks := make([]int, queries.N)
	for q := range ranks {
		ranks[q] = RankOfTrueNN(base, queries.Code(q), trueNN[q])
	}
	out := make([]float64, len(rs))
	for ri, r := range rs {
		hit := 0
		for _, rank := range ranks {
			if rank <= r {
				hit++
			}
		}
		if queries.N > 0 {
			out[ri] = float64(hit) / float64(queries.N)
		}
	}
	return out
}
