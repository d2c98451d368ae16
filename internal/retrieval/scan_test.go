package retrieval

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// scanHammingOracle is the reference linear scan: one HammingWords call per
// row through Code(i), and a sort.Search insertion that relies on rows
// arriving in index order. It appends to buf the top-k candidates of base
// rows [lo, hi), sorted by (distance, index).
func scanHammingOracle(base *Codes, query []uint64, k, lo, hi int, buf []Neighbor) []Neighbor {
	if k <= 0 {
		return buf
	}
	worst := -1
	if len(buf) > 0 {
		worst = buf[len(buf)-1].Dist
	}
	for i := lo; i < hi; i++ {
		d := HammingWords(base.Code(i), query)
		if len(buf) == k && d >= worst {
			continue
		}
		pos := sort.Search(len(buf), func(j int) bool {
			return buf[j].Dist > d
		})
		if len(buf) < k {
			buf = append(buf, Neighbor{})
		}
		copy(buf[pos+1:], buf[pos:len(buf)-1])
		buf[pos] = Neighbor{Index: i, Dist: d}
		worst = buf[len(buf)-1].Dist
	}
	return buf
}

// topKOracle is TopKHammingDist over the reference scan.
func topKOracle(base *Codes, query []uint64, k int) []Neighbor {
	k = clampK(k, base.N)
	return scanHammingOracle(base, query, k, 0, base.N, make([]Neighbor, 0, k))
}

// shardView is rows [off, off+n) of c as a Codes whose Data starts mid-array,
// the way serve.NewShardedIndex cuts its shards.
func shardView(c *Codes, off, n int) *Codes {
	return &Codes{N: n, L: c.L, Words: c.Words, Data: c.Data[off*c.Words : (off+n)*c.Words]}
}

// TestScanMatchesOracle checks the kernel against the reference scan over
// every code width class (short codes make distance ties dense), base sizes
// around the four-row unroll, k from 0 past N, and shard views.
func TestScanMatchesOracle(t *testing.T) {
	for _, l := range []int{8, 16, 63, 64, 65, 128, 130} {
		for _, n := range []int{0, 1, 3, 4, 5, 7, 1001} {
			const off = 3
			whole := randomCodes(off+n+2, l, int64(l*10000+n))
			queries := randomCodes(4, l, int64(l*10000+n)+1)
			if n > 0 {
				copy(queries.Code(0), whole.Code(off+n/2)) // a distance-0 hit
			}
			views := map[string]*Codes{"base": randomCodes(n, l, int64(l*10000+n)+2), "shard": shardView(whole, off, n)}
			for name, base := range views {
				for _, k := range []int{0, 1, 7, n - 1, n, n + 5} {
					for qi := 0; qi < queries.N; qi++ {
						q := queries.Code(qi)
						got, want := TopKHammingDist(base, q, k), topKOracle(base, q, k)
						if !slices.Equal(got, want) {
							t.Fatalf("L=%d N=%d %s k=%d query %d:\n got %v\nwant %v", l, n, name, k, qi, got, want)
						}
					}
				}
			}
		}
	}
}

// TestTopKHammingRejectsWrongWidth: a query must have the base's word count.
// Reading only query[0] would otherwise search a 2-word query against 1-word
// codes by its first word.
func TestTopKHammingRejectsWrongWidth(t *testing.T) {
	for _, c := range []struct {
		name  string
		l     int
		query []uint64
		want  string
	}{
		{"2-word query, 1-word codes", 64, []uint64{1, 2}, "code width mismatch 1 vs 2"},
		{"1-word query, 2-word codes", 128, []uint64{1}, "code width mismatch 2 vs 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := TopKHammingDist(NewCodes(0, c.l), c.query, 5); len(got) != 0 {
				t.Fatalf("empty base returned %d results", len(got))
			}
			base := randomCodes(10, c.l, 1)
			for _, k := range []int{0, 5} {
				func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.Contains(msg, c.want) {
							t.Fatalf("k=%d: panic %q, want one containing %q", k, msg, c.want)
						}
					}()
					TopKHammingDist(base, c.query, k)
				}()
			}
		})
	}
}

// FuzzTopKHamming derives codes, a shard offset, a width and k from
// arbitrary input and checks the kernel against the reference scan.
func FuzzTopKHamming(f *testing.F) {
	f.Add(int64(1), uint16(1001), uint8(64), int16(50), uint8(0))
	f.Add(int64(2), uint16(7), uint8(8), int16(3), uint8(2))
	f.Add(int64(3), uint16(300), uint8(130), int16(20), uint8(5))
	f.Add(int64(4), uint16(0), uint8(16), int16(4), uint8(0))
	f.Add(int64(5), uint16(9), uint8(65), int16(-1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, l uint8, k int16, off uint8) {
		nn := int(n) % 2000
		ll := 1 + int(l)%200
		o := int(off) % 8
		base := shardView(randomCodes(o+nn, ll, seed), o, nn)
		queries := randomCodes(3, ll, seed+1)
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Code(qi)
			got, want := TopKHammingDist(base, q, int(k)), topKOracle(base, q, int(k))
			if !slices.Equal(got, want) {
				t.Fatalf("N=%d L=%d k=%d off=%d query %d:\n got %v\nwant %v", nn, ll, k, o, qi, got, want)
			}
		}
	})
}

var scanSink []Neighbor

// BenchmarkTopKHamming times one query's linear scan over 200 000 random
// codes with k = 50, rotating through 64 queries, and reports ns per code:
// L = 64 is the serve_scan shard's one-word kernel, L = 128 the generic one.
// The codes are built once per width, outside the timed sub-benchmark.
func BenchmarkTopKHamming(b *testing.B) {
	const n, nq, k = 200000, 64, 50
	for _, l := range []int{64, 128} {
		base, queries := randomCodes(n, l, 71), randomCodes(nq, l, 72)
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scanSink = TopKHammingDist(base, queries.Code(i%nq), k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/code")
		})
	}
}

// BenchmarkMergeTopK times the merge of S sorted shard lists of k neighbours
// each, S ∈ {2, 8} and k ∈ {50, 1000}: the step after a sharded scan's join,
// so it sits on a query's critical path. The lists come from real scans of
// random 64-bit codes, so ties interleave the shards as they do in serving.
func BenchmarkMergeTopK(b *testing.B) {
	for _, s := range []int{2, 8} {
		for _, k := range []int{50, 1000} {
			rows := 4 * k
			base, q := randomCodes(s*rows, 64, 81), randomCodes(1, 64, 82).Code(0)
			parts := make([][]Neighbor, s)
			for p := range parts {
				shard := &Codes{N: rows, L: 64, Words: 1, Data: base.Data[p*rows : (p+1)*rows]}
				parts[p] = OffsetNeighbors(TopKHammingDist(shard, q, k), p*rows)
			}
			b.Run(fmt.Sprintf("parts=%d/k=%d", s, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					scanSink = MergeTopK(parts, k)
				}
			})
		}
	}
}
