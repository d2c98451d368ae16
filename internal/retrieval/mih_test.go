package retrieval

import (
	"fmt"
	"math/rand"
	"testing"
)

// assertNeighborsEqual pins bit- and tie-exact equality against the oracle.
func assertNeighborsEqual(t *testing.T, ctx string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: got %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestMIHMatchesLinearOracle is the contract table: every configuration —
// degenerate k, adversarially tied codes, L not divisible by the block count,
// multi-word codes, auto-picked blocks — must reproduce TopKHammingDist
// exactly, tie order included.
func TestMIHMatchesLinearOracle(t *testing.T) {
	cases := []struct {
		name       string
		n, l       int
		blocks     int
		ks         []int
		seed       int64
		allEqual   bool
		numQueries int
	}{
		{name: "random64", n: 2000, l: 64, blocks: 4, ks: []int{1, 10, 50}, seed: 1, numQueries: 20},
		{name: "auto blocks", n: 1500, l: 64, blocks: 0, ks: []int{10}, seed: 2, numQueries: 10},
		{name: "one block", n: 300, l: 12, blocks: 1, ks: []int{5}, seed: 3, numQueries: 10},
		{name: "L not divisible by blocks", n: 800, l: 20, blocks: 3, ks: []int{7, 20}, seed: 4, numQueries: 15},
		{name: "multi-word codes", n: 600, l: 96, blocks: 7, ks: []int{9}, seed: 5, numQueries: 10},
		{name: "multi-word unaligned", n: 400, l: 65, blocks: 5, ks: []int{11}, seed: 6, numQueries: 10},
		{name: "adversarial ties (L=8)", n: 500, l: 8, blocks: 2, ks: []int{1, 25, 100}, seed: 7, numQueries: 20},
		{name: "all-equal codes", n: 200, l: 16, blocks: 2, ks: []int{1, 50}, seed: 8, allEqual: true, numQueries: 5},
		{name: "k > n", n: 60, l: 32, blocks: 4, ks: []int{60, 61, 1000}, seed: 9, numQueries: 5},
		{name: "k <= 0", n: 100, l: 32, blocks: 4, ks: []int{0, -1, -100}, seed: 10, numQueries: 3},
		{name: "blocks > L clamps", n: 150, l: 6, blocks: 99, ks: []int{5}, seed: 11, numQueries: 5},
		{name: "tiny n", n: 1, l: 16, blocks: 2, ks: []int{1, 3}, seed: 12, numQueries: 3},
		{name: "empty base", n: 0, l: 16, blocks: 2, ks: []int{0, 5}, seed: 13, numQueries: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := randomCodes(c.n, c.l, c.seed)
			if c.allEqual {
				for i := 1; i < base.N; i++ {
					base.CopyCode(i, base, 0)
				}
			}
			queries := randomCodes(c.numQueries, c.l, c.seed+1000)
			ix, err := NewMIHIndex(base, c.blocks)
			if err != nil {
				t.Fatal(err)
			}
			s := ix.NewSearcher()
			for qi := 0; qi < queries.N; qi++ {
				q := queries.Code(qi)
				for _, k := range c.ks {
					want := TopKHammingDist(base, q, k)
					assertNeighborsEqual(t, "searcher", s.Search(q, k), want)
					assertNeighborsEqual(t, "one-shot", ix.Search(q, k), want)
				}
			}
		})
	}
}

// TestMIHPropertyRandomShapes hammers random (n, l, blocks, k) shapes; the
// searcher is reused across queries so the generation-stamp dedup is
// exercised too. It checks against the reference scan rather than
// TopKHammingDist, whose kernel shares MIH's insertion helper, so a bug there
// cannot pass by agreeing with itself.
func TestMIHPropertyRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(700)
		l := 1 + rng.Intn(80)
		blocks := rng.Intn(10) // 0 = auto
		k := rng.Intn(n + 10)
		base := randomCodes(n, l, int64(trial))
		ix, err := NewMIHIndex(base, blocks)
		if err != nil {
			t.Fatal(err)
		}
		s := ix.NewSearcher()
		queries := randomCodes(5, l, int64(trial)+500)
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Code(qi)
			got := s.Search(q, k)
			want := topKOracle(base, q, k)
			assertNeighborsEqual(t, "property", got, want)
		}
	}
}

// TestMIHWithAppended checks the copy-on-write snapshot step: the child index
// equals a fresh build over the concatenated codes, and the parent snapshot
// keeps answering for exactly its own points — the immutability the serving
// tier's atomic-pointer hot path relies on.
func TestMIHWithAppended(t *testing.T) {
	base := randomCodes(500, 24, 31)
	extra := randomCodes(300, 24, 32)
	parent, err := NewMIHIndex(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	child, err := parent.WithAppended(extra)
	if err != nil {
		t.Fatal(err)
	}
	if child.N() != 800 || parent.N() != 500 {
		t.Fatalf("N: child %d parent %d", child.N(), parent.N())
	}

	combined := NewCodes(800, 24)
	copy(combined.Data, base.Data)
	copy(combined.Data[500*base.Words:], extra.Data)

	queries := randomCodes(25, 24, 33)
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Code(qi)
		assertNeighborsEqual(t, "child", child.Search(q, 20), TopKHammingDist(combined, q, 20))
		assertNeighborsEqual(t, "parent after append", parent.Search(q, 20), TopKHammingDist(base, q, 20))
	}

	// A second append chains snapshots; the middle snapshot must survive.
	more := randomCodes(100, 24, 34)
	grand, err := child.WithAppended(more)
	if err != nil {
		t.Fatal(err)
	}
	all := NewCodes(900, 24)
	copy(all.Data, combined.Data)
	copy(all.Data[800*all.Words:], more.Data)
	q := queries.Code(0)
	assertNeighborsEqual(t, "grandchild", grand.Search(q, 30), TopKHammingDist(all, q, 30))
	assertNeighborsEqual(t, "child after second append", child.Search(q, 30), TopKHammingDist(combined, q, 30))

	// Appending mismatched code lengths must fail loudly.
	if _, err := parent.WithAppended(randomCodes(5, 16, 35)); err == nil {
		t.Fatal("appending 16-bit codes to a 24-bit index should error")
	}
}

// TestMIHAppendToEmpty covers streaming ingest from a cold start.
func TestMIHAppendToEmpty(t *testing.T) {
	empty, err := NewMIHIndex(NewCodes(0, 32), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.Search([]uint64{7}, 5); len(got) != 0 {
		t.Fatalf("empty index returned %d results", len(got))
	}
	extra := randomCodes(200, 32, 41)
	ix, err := empty.WithAppended(extra)
	if err != nil {
		t.Fatal(err)
	}
	q := randomCodes(1, 32, 42).Code(0)
	assertNeighborsEqual(t, "appended-to-empty", ix.Search(q, 10), TopKHammingDist(extra, q, 10))
}

func TestMIHOccupancy(t *testing.T) {
	base := randomCodes(400, 32, 51)
	ix, err := NewMIHIndex(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	occ := ix.Occupancy()
	if occ.Blocks != 4 {
		t.Fatalf("blocks = %d, want 4", occ.Blocks)
	}
	if occ.Buckets != 4*(1<<8) {
		t.Fatalf("buckets = %d, want %d", occ.Buckets, 4*(1<<8))
	}
	if occ.UsedBuckets == 0 || occ.UsedBuckets > occ.Buckets {
		t.Fatalf("used buckets = %d out of %d", occ.UsedBuckets, occ.Buckets)
	}
	if occ.MaxList < 1 || occ.MeanList <= 0 || float64(occ.MaxList) < occ.MeanList {
		t.Fatalf("list stats: max %d mean %f", occ.MaxList, occ.MeanList)
	}
	// Every point lands in exactly one bucket per block.
	if got := occ.MeanList * float64(occ.UsedBuckets); int(got+0.5) != 4*400 {
		t.Fatalf("total posting entries = %v, want %d", got, 4*400)
	}
}

func TestAutoMIHBlocksBounds(t *testing.T) {
	for _, c := range []struct{ n, l int }{
		{0, 1}, {1, 1}, {10, 64}, {50000, 64}, {1 << 20, 64}, {100, 128}, {1 << 30, 8},
	} {
		m := AutoMIHBlocks(c.n, c.l)
		if m < 1 || m > c.l {
			t.Fatalf("AutoMIHBlocks(%d, %d) = %d outside [1, %d]", c.n, c.l, m, c.l)
		}
		if width := (c.l + m - 1) / m; width > MaxMIHBlockBits {
			t.Fatalf("AutoMIHBlocks(%d, %d) = %d gives width %d > %d", c.n, c.l, m, width, MaxMIHBlockBits)
		}
	}
}

// FuzzMIHOracle derives a code set, block count and query from arbitrary
// bytes and asserts MIH search equals the reference scan exactly. This is the
// index the serving tier trusts for hot traffic, so the equivalence must hold
// for every reachable shape, not just the seeded ones.
func FuzzMIHOracle(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(16), uint8(2), uint8(10))
	f.Add(int64(2), uint16(1), uint8(1), uint8(0), uint8(1))
	f.Add(int64(3), uint16(500), uint8(8), uint8(3), uint8(200))
	f.Add(int64(4), uint16(50), uint8(65), uint8(7), uint8(5))
	f.Add(int64(5), uint16(0), uint8(32), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, l, blocks, k uint8) {
		nn := int(n) % 600
		ll := 1 + int(l)%96
		base := randomCodes(nn, ll, seed)
		ix, err := NewMIHIndex(base, int(blocks))
		if err != nil {
			t.Fatalf("NewMIHIndex(n=%d l=%d blocks=%d): %v", nn, ll, blocks, err)
		}
		queries := randomCodes(3, ll, seed+1)
		s := ix.NewSearcher()
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Code(qi)
			got := s.Search(q, int(k))
			want := topKOracle(base, q, int(k))
			assertNeighborsEqual(t, "fuzz", got, want)
		}
	})
}

// Benchmarks: the MIH path must appear in the CI -benchtime=1x smoke next to
// the linear scan it replaces.

func benchCodes(n, l int, seed int64) *Codes {
	return randomCodes(n, l, seed)
}

func BenchmarkMIHSearch(b *testing.B) {
	base := benchCodes(100000, 64, 61)
	ix, err := NewMIHIndex(base, 0)
	if err != nil {
		b.Fatal(err)
	}
	s := ix.NewSearcher()
	query := benchCodes(1, 64, 62).Code(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(query, 50)
	}
}

func BenchmarkMIHBuild(b *testing.B) {
	base := benchCodes(100000, 64, 63)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewMIHIndex(base, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinearVsMIH is the linear-scan vs MIH crossover grid behind the
// README "Retrieval" table: N × k × index kind, over one rotating stream of
// 64 queries so neither side profits from a lucky query. Both sides return
// tie-exact identical neighbours; only the ns/op differ.
func BenchmarkLinearVsMIH(b *testing.B) {
	const nq = 64
	queries := benchCodes(nq, 64, 65)
	for _, n := range []int{50000, 200000, 1000000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			if testing.Short() && n > 200000 {
				b.Skip("1M-code build skipped under -short")
			}
			base := benchCodes(n, 64, 64)
			ix, err := NewMIHIndex(base, 0)
			if err != nil {
				b.Fatal(err)
			}
			s := ix.NewSearcher()
			for _, k := range []int{1, 10, 100} {
				b.Run(fmt.Sprintf("k=%d/linear", k), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						TopKHammingDist(base, queries.Code(i%nq), k)
					}
				})
				b.Run(fmt.Sprintf("k=%d/mih", k), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						s.Search(queries.Code(i%nq), k)
					}
				})
			}
		})
	}
}
