package retrieval

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// sweepWorkers are the worker counts every pooled entry point is checked at:
// serial, small, odd, more than the chunk count allows, and every core.
var sweepWorkers = []int{1, 2, 3, 8, -1}

// tieHeavyCodes builds codes drawn from a tiny alphabet so Hamming ties are
// everywhere — the regime where a sloppy parallel merge would diverge from
// the serial lower-index tie rule.
func tieHeavyCodes(n, l int, seed int64) *Codes {
	rng := rand.New(rand.NewSource(seed))
	alphabet := make([]uint64, 4)
	for i := range alphabet {
		alphabet[i] = rng.Uint64() & ((1 << uint(l)) - 1)
	}
	c := NewCodes(n, l)
	for i := 0; i < n; i++ {
		c.SetWord64(i, alphabet[rng.Intn(len(alphabet))])
	}
	return c
}

// TestAllTopKHammingMatchesLoop: the batch fan-out must equal the per-query
// serial loop for any worker count.
func TestAllTopKHammingMatchesLoop(t *testing.T) {
	base := tieHeavyCodes(400, 24, 3)
	queries := tieHeavyCodes(17, 24, 4)
	want := make([][]int, queries.N)
	for q := 0; q < queries.N; q++ {
		want[q] = TopKHamming(base, queries.Code(q), 25)
	}
	for _, workers := range sweepWorkers {
		got := AllTopKHamming(base, queries, 25, workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: batch retrieval differs from serial loop", workers)
		}
	}
}

// TestGroundTruthParallelMatchesSerial: query-parallel exact ground truth
// must equal the per-query serial scan for any worker count.
func TestGroundTruthParallelMatchesSerial(t *testing.T) {
	base := dataset.GISTLike(300, 8, 3, 5)
	queries := dataset.GISTLike(23, 8, 3, 6)
	want := make([][]int, queries.N)
	for q := range want {
		want[q] = TopKEuclidean(base, queries.Point(q, nil), 10)
	}
	for _, workers := range sweepWorkers {
		if got := GroundTruth(base, queries, 10, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: parallel ground truth differs", workers)
		}
	}
}

// TestRankAndRecallParallelMatchSerial: recall@R must equal recall counted
// from per-query ranks, ties included.
func TestRankAndRecallParallelMatchSerial(t *testing.T) {
	base := tieHeavyCodes(500, 12, 7)
	queries := tieHeavyCodes(31, 12, 8)
	trueNN := make([]int, queries.N)
	rng := rand.New(rand.NewSource(9))
	for q := range trueNN {
		trueNN[q] = rng.Intn(base.N)
	}
	rs := []int{1, 5, 100}
	want := make([]float64, len(rs))
	for q := 0; q < queries.N; q++ {
		rank := RankOfTrueNN(base, queries.Code(q), trueNN[q])
		for ri, r := range rs {
			if rank <= r {
				want[ri]++
			}
		}
	}
	for ri := range want {
		want[ri] /= float64(queries.N)
	}
	if got := RecallAtR(base, queries, trueNN, rs); !reflect.DeepEqual(got, want) {
		t.Fatalf("recall@R %v differs from the per-query ranks' %v", got, want)
	}
}

// precisionMapOracle is the map-membership implementation Precision replaced;
// kept here as the behavioural oracle for the sorted-buffer rewrite.
func precisionMapOracle(truth, retrieved [][]int) float64 {
	if len(truth) == 0 {
		return 0
	}
	var total float64
	for q := range truth {
		if len(retrieved[q]) == 0 {
			continue
		}
		set := make(map[int]struct{}, len(truth[q]))
		for _, i := range truth[q] {
			set[i] = struct{}{}
		}
		hit := 0
		for _, i := range retrieved[q] {
			if _, ok := set[i]; ok {
				hit++
			}
		}
		total += float64(hit) / float64(len(retrieved[q]))
	}
	return total / float64(len(truth))
}

// TestPrecisionMatchesMapOracle: the alloc-free sorted-membership Precision
// must equal the map version on messy inputs — duplicates in the truth
// lists, empty retrieved sets, unsorted indices.
func TestPrecisionMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		nq := 1 + rng.Intn(8)
		truth := make([][]int, nq)
		retrieved := make([][]int, nq)
		for q := 0; q < nq; q++ {
			for j := 0; j < rng.Intn(12); j++ {
				truth[q] = append(truth[q], rng.Intn(20))
			}
			for j := 0; j < rng.Intn(12); j++ {
				retrieved[q] = append(retrieved[q], rng.Intn(20))
			}
		}
		got := Precision(truth, retrieved)
		want := precisionMapOracle(truth, retrieved)
		if got != want {
			t.Fatalf("trial %d: Precision %v != map oracle %v (truth=%v retrieved=%v)",
				trial, got, want, truth, retrieved)
		}
	}
}
