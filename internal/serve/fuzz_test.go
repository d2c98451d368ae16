package serve

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/retrieval"
)

// FuzzSearchRequest throws arbitrary client bytes at the search-request
// parser — the first thing untrusted traffic touches. The contract: a Query
// or a 400-class apiError, never a panic, and any accepted code words must
// have round-trippable hex forms.
func FuzzSearchRequest(f *testing.F) {
	f.Add([]byte(`{"vector":[1,2,3],"k":5}`))
	f.Add([]byte(`{"code":["0xdeadbeef"],"k":10}`))
	f.Add([]byte(`{"code":["ffff"]}`))
	f.Add([]byte(`{"code":["0x10000000000000000"]}`)) // overflows uint64
	f.Add([]byte(`{"code":[],"vector":[]}`))
	f.Add([]byte(`{"k":-9223372036854775808}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"vector":[1e308,-1e308],"code":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := parseSearchRequest(data)
		if err != nil {
			ae, ok := err.(*apiError)
			if !ok {
				t.Fatalf("parse error is %T, want *apiError", err)
			}
			if ae.status < 400 || ae.status > 499 {
				t.Fatalf("parse error status %d, want 4xx", ae.status)
			}
			return
		}
		// Accepted: the canonical hex rendering must parse back to the same
		// words.
		back, err := parseSearchRequest([]byte(`{"code":["` + joinHex(q.Code) + `"]}`))
		if len(q.Code) == 1 {
			if err != nil || back.Code[0] != q.Code[0] {
				t.Fatalf("hex round trip: %v %v", err, back.Code)
			}
		}
	})
}

func joinHex(words []uint64) string {
	if len(words) == 0 {
		return "0"
	}
	return FormatCode(words[:1])[0]
}

// FuzzShardedSearch checks the sharded scan against the linear oracle:
// random codes of 1 to 128 bits (one or two words), 1–9 shards and k from −1
// to above N. The result must equal retrieval.TopKHammingDist, tie order
// included — the concurrent shard scans and the k-way merge may not move a
// single result.
func FuzzShardedSearch(f *testing.F) {
	// seed, n, bits, shards, k
	f.Add(int64(1), uint16(200), uint8(63), uint8(3), uint16(20)) // 4 shards
	f.Add(int64(2), uint16(40), uint8(7), uint8(7), uint16(30))   // k above a shard's 5 rows
	f.Add(int64(3), uint16(90), uint8(99), uint8(8), uint16(92))  // two words, k above N
	f.Add(int64(4), uint16(0), uint8(15), uint8(2), uint16(0))    // empty index
	f.Add(int64(5), uint16(17), uint8(3), uint8(5), uint16(5))    // 4-bit codes: ties everywhere
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, bitsRaw, shardsRaw uint8, kRaw uint16) {
		n := int(nRaw) % 300
		l := 1 + int(bitsRaw)%128
		shards := 1 + int(shardsRaw)%9
		k := int(kRaw)%(n+3) - 1
		rng := rand.New(rand.NewSource(seed))
		random := func(rows int) *retrieval.Codes {
			c := retrieval.NewCodes(rows, l)
			for i := range c.Data {
				c.Data[i] = rng.Uint64()
			}
			if l%64 != 0 {
				for i := 0; i < rows; i++ {
					c.Code(i)[c.Words-1] &= 1<<(l%64) - 1
				}
			}
			return c
		}
		codes, query := random(n), random(1).Code(0)
		got := NewShardedIndex(codes, shards).Search(query, k)
		if want := retrieval.TopKHammingDist(codes, query, k); !slices.Equal(got, want) {
			t.Fatalf("n=%d l=%d shards=%d k=%d: %v, want %v", n, l, shards, k, got, want)
		}
	})
}
