package dataset

import (
	"fmt"
	"math/rand"
)

// ShardIndices splits point indices {0..n-1} into p disjoint contiguous
// shards whose sizes are proportional to weights (machine processing powers
// α_p from §4.3). weights == nil means identical machines, i.e. equal N/P
// portions. Every shard is non-empty as long as n >= p.
func ShardIndices(n, p int, weights []float64) [][]int {
	if p <= 0 {
		panic("dataset: need at least one shard")
	}
	if weights != nil && len(weights) != p {
		panic(fmt.Sprintf("dataset: %d weights for %d shards", len(weights), p))
	}
	sizes := ShardSizes(n, p, weights)
	out := make([][]int, p)
	start := 0
	for i, sz := range sizes {
		out[i] = make([]int, sz)
		for k := 0; k < sz; k++ {
			out[i][k] = start + k
		}
		start += sz
	}
	return out
}

// ShardSizes computes the per-shard point counts for ShardIndices: the
// largest-remainder apportionment of n points proportional to weights.
func ShardSizes(n, p int, weights []float64) []int {
	sizes := make([]int, p)
	if weights == nil {
		base := n / p
		rem := n % p
		for i := range sizes {
			sizes[i] = base
			if i < rem {
				sizes[i]++
			}
		}
		return sizes
	}
	var total float64
	for _, w := range weights {
		if w <= 0 {
			panic("dataset: shard weights must be positive")
		}
		total += w
	}
	assigned := 0
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, p)
	for i, w := range weights {
		exact := float64(n) * w / total
		sizes[i] = int(exact)
		assigned += sizes[i]
		fracs[i] = frac{i, exact - float64(sizes[i])}
	}
	// Distribute the remainder to the largest fractional parts.
	for assigned < n {
		best := 0
		for i := 1; i < p; i++ {
			if fracs[i].f > fracs[best].f {
				best = i
			}
		}
		sizes[fracs[best].i]++
		fracs[best].f = -1
		assigned++
	}
	return sizes
}

// ShuffledShardIndices is ShardIndices applied to a seeded permutation of the
// points, so each machine receives a random subset (the paper assumes data
// are randomly distributed over machines, §4.2).
func ShuffledShardIndices(n, p int, weights []float64, seed int64) [][]int {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	shards := ShardIndices(n, p, weights)
	for _, s := range shards {
		for k := range s {
			s[k] = perm[s[k]]
		}
	}
	return shards
}
