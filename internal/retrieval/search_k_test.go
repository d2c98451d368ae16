package retrieval

import (
	"math/rand"
	"slices"
	"testing"
)

// These tests pin the k ≤ 0 contract across every search entry point: k is a
// request parameter once a server exists, so a negative or zero k must yield
// an empty result — never a panic from make([]T, 0, k).

func randomCodes(n, l int, seed int64) *Codes {
	rng := rand.New(rand.NewSource(seed))
	c := NewCodes(n, l)
	for i := range c.Data {
		c.Data[i] = rng.Uint64()
	}
	if l%64 != 0 {
		for i := 0; i < n; i++ {
			code := c.Code(i)
			code[len(code)-1] &= (1 << uint(l%64)) - 1
		}
	}
	return c
}

func TestTopKNonPositiveK(t *testing.T) {
	base := randomCodes(200, 64, 1)
	queries := randomCodes(4, 64, 2)
	q := queries.Code(0)
	for _, k := range []int{0, -1, -1000} {
		if got := TopKHamming(base, q, k); len(got) != 0 {
			t.Fatalf("TopKHamming k=%d: got %d results", k, len(got))
		}
		if got := TopKHammingDist(base, q, k); len(got) != 0 {
			t.Fatalf("TopKHammingDist k=%d: got %d results", k, len(got))
		}
		for _, workers := range sweepWorkers {
			for _, rows := range AllTopKHamming(base, queries, k, workers) {
				if len(rows) != 0 {
					t.Fatalf("AllTopKHamming k=%d workers=%d: non-empty row", k, workers)
				}
			}
		}
	}
}

// TestTopKCapsAtN pins the other half of the clampK contract: a k larger
// than the base returns exactly N results, identically across the serial,
// batched, and Euclidean entry points.
func TestTopKCapsAtN(t *testing.T) {
	base := randomCodes(30, 32, 7)
	queries := randomCodes(1, 32, 8)
	q := queries.Code(0)
	for _, k := range []int{30, 31, 1000} {
		serial := TopKHamming(base, q, k)
		if len(serial) != base.N {
			t.Fatalf("TopKHamming k=%d: got %d results, want %d", k, len(serial), base.N)
		}
		for _, workers := range sweepWorkers {
			batch := AllTopKHamming(base, queries, k, workers)[0]
			if !slices.Equal(batch, serial) {
				t.Fatalf("k=%d workers=%d: batched %v, serial %v", k, workers, batch, serial)
			}
		}
	}
	pts := pointsFromRows([][]float64{{0, 0}, {1, 1}, {2, 2}})
	if got := TopKEuclidean(pts, []float64{0.1, 0.1}, 99); len(got) != 3 {
		t.Fatalf("TopKEuclidean k>n: got %d results, want 3", len(got))
	}
}

func TestTopKEuclideanNonPositiveK(t *testing.T) {
	base := pointsFromRows([][]float64{{0, 0}, {1, 1}, {2, 2}})
	for _, k := range []int{0, -1, -7} {
		if got := TopKEuclidean(base, []float64{0.5, 0.5}, k); len(got) != 0 {
			t.Fatalf("TopKEuclidean k=%d: got %d results", k, len(got))
		}
	}
	queries := pointsFromRows([][]float64{{0, 0}})
	for _, rows := range GroundTruth(base, queries, -1, 1) {
		if len(rows) != 0 {
			t.Fatal("GroundTruth k=-1: non-empty row")
		}
	}
}

// rowPoints adapts a [][]float64 to sgd.Points for the Euclidean tests.
type rowPoints [][]float64

func (r rowPoints) NumPoints() int { return len(r) }
func (r rowPoints) Point(i int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(r[i]))
	}
	copy(dst, r[i])
	return dst
}

func pointsFromRows(rows [][]float64) rowPoints { return rowPoints(rows) }

func TestPrecisionToleratesEmptyRetrieved(t *testing.T) {
	truth := [][]int{{0, 1}, {2, 3}}
	// First query retrieved nothing (a k = 0 request), second hit fully:
	// empty rows contribute zero precision, so the mean is 0.5.
	retrieved := [][]int{{}, {2, 3}}
	if got := Precision(truth, retrieved); got != 0.5 {
		t.Fatalf("Precision = %v, want 0.5", got)
	}
	allEmpty := [][]int{{}, {}}
	if got := Precision(truth, allEmpty); got != 0 {
		t.Fatalf("Precision over empty rows = %v, want 0", got)
	}
}

func TestRecallAtRToleratesNonPositiveR(t *testing.T) {
	base := randomCodes(50, 32, 3)
	queries := randomCodes(5, 32, 4)
	trueNN := []int{0, 1, 2, 3, 4}
	got := RecallAtR(base, queries, trueNN, []int{-1, 0, 50})
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("recall at R<=0 should be 0, got %v", got[:2])
	}
	if got[2] != 1 {
		t.Fatalf("recall at R=N should be 1, got %v", got[2])
	}
}

func TestMergeTopKMatchesSerialScan(t *testing.T) {
	// Shard the base, search shards independently, offset and merge: must
	// equal the unsharded scan exactly, including tie order (L=16 over 300
	// codes guarantees many distance ties).
	base := randomCodes(300, 16, 5)
	queries := randomCodes(20, 16, 6)
	const k, shards = 25, 4
	per := (base.N + shards - 1) / shards
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Code(qi)
		want := TopKHammingDist(base, q, k)
		parts := make([][]Neighbor, 0, shards)
		for lo := 0; lo < base.N; lo += per {
			hi := min(lo+per, base.N)
			shard := &Codes{N: hi - lo, L: base.L, Words: base.Words,
				Data: base.Data[lo*base.Words : hi*base.Words]}
			parts = append(parts, OffsetNeighbors(TopKHammingDist(shard, q, k), lo))
		}
		got := MergeTopK(parts, k)
		if len(got) != len(want) {
			t.Fatalf("query %d: merged %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: merged %+v, serial %+v", qi, i, got[i], want[i])
			}
		}
	}
}

func TestMergeTopKTieOrderAcrossShards(t *testing.T) {
	// Hand-built candidate lists where every interesting distance is
	// duplicated across shard offsets: the merge must order ties strictly by
	// global index, interleaving the shards, and truncate at k mid-tie. The
	// MIH re-rank relies on exactly this (Dist, Index) rule to stay tie-exact
	// with the linear oracle.
	shard0 := []Neighbor{{Index: 0, Dist: 1}, {Index: 2, Dist: 3}, {Index: 5, Dist: 3}}
	shard1 := OffsetNeighbors([]Neighbor{{Index: 1, Dist: 1}, {Index: 3, Dist: 3}}, 10)
	shard2 := OffsetNeighbors([]Neighbor{{Index: 0, Dist: 1}, {Index: 1, Dist: 3}, {Index: 2, Dist: 7}}, 20)

	want := []Neighbor{
		{Index: 0, Dist: 1}, {Index: 11, Dist: 1}, {Index: 20, Dist: 1},
		{Index: 2, Dist: 3}, {Index: 5, Dist: 3}, {Index: 13, Dist: 3},
		{Index: 21, Dist: 3},
		{Index: 22, Dist: 7},
	}
	got := MergeTopK([][]Neighbor{shard0, shard1, shard2}, -1)
	if len(got) != len(want) {
		t.Fatalf("merged %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}

	// k=5 cuts inside the Dist=3 tie group: the survivors must be the
	// lowest-indexed members, not whichever shard came first.
	got = MergeTopK([][]Neighbor{shard0, shard1, shard2}, 5)
	if len(got) != 5 {
		t.Fatalf("k=5 merged %d results", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("k=5 rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}

	// k=0 and empty parts stay well-defined.
	if got := MergeTopK([][]Neighbor{shard0, nil, {}}, 0); len(got) != 0 {
		t.Fatalf("k=0 merged %d results", len(got))
	}

	// An empty part first, and a part longer than k: the walk skips the
	// empty head and stops at k, leaving the long part's tail unread.
	got = MergeTopK([][]Neighbor{{}, shard2, shard1}, 2)
	if wantShort := []Neighbor{{Index: 11, Dist: 1}, {Index: 20, Dist: 1}}; !slices.Equal(got, wantShort) {
		t.Fatalf("empty-first k=2: %+v, want %+v", got, wantShort)
	}
}
