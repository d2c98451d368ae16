package retrieval

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/vec"
)

func TestCodesBitRoundTrip(t *testing.T) {
	c := NewCodes(3, 70) // spans two words
	c.SetBit(1, 0, true)
	c.SetBit(1, 69, true)
	c.SetBit(2, 64, true)
	if !c.Bit(1, 0) || !c.Bit(1, 69) || !c.Bit(2, 64) {
		t.Fatal("bits not set")
	}
	if c.Bit(0, 0) || c.Bit(1, 68) {
		t.Fatal("unexpected bits set")
	}
	c.SetBit(1, 69, false)
	if c.Bit(1, 69) {
		t.Fatal("clear failed")
	}
}

func TestHammingMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := 1 + r.Intn(130)
		c := NewCodes(2, l)
		naive := 0
		for b := 0; b < l; b++ {
			v0, v1 := r.Intn(2) == 1, r.Intn(2) == 1
			c.SetBit(0, b, v0)
			c.SetBit(1, b, v1)
			if v0 != v1 {
				naive++
			}
		}
		return HammingWords(c.Code(0), c.Code(1)) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestHammingIsMetricProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewCodes(3, 40)
		for i := 0; i < 3; i++ {
			for b := 0; b < 40; b++ {
				c.SetBit(i, b, r.Intn(2) == 1)
			}
		}
		dab := HammingWords(c.Code(0), c.Code(1))
		dba := HammingWords(c.Code(1), c.Code(0))
		daa := HammingWords(c.Code(0), c.Code(0))
		dac := HammingWords(c.Code(0), c.Code(2))
		dcb := HammingWords(c.Code(2), c.Code(1))
		return dab == dba && daa == 0 && dab <= dac+dcb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// fromBits builds codes from a row-major bool matrix (n rows of l bits).
func fromBits(rows [][]bool) *Codes {
	n := len(rows)
	if n == 0 {
		panic("retrieval: fromBits on empty input")
	}
	l := len(rows[0])
	c := NewCodes(n, l)
	for i, r := range rows {
		if len(r) != l {
			panic("retrieval: ragged bit rows")
		}
		for b, v := range r {
			c.SetBit(i, b, v)
		}
	}
	return c
}

// equalCodes reports whether two code sets are identical.
func equalCodes(a, b *Codes) bool {
	return a.N == b.N && a.L == b.L && slices.Equal(a.Data, b.Data)
}

// cloneCodes returns a deep copy of c.
func cloneCodes(c *Codes) *Codes {
	out := NewCodes(c.N, c.L)
	copy(out.Data, c.Data)
	return out
}

func TestFromBitsAndEqualClone(t *testing.T) {
	rows := [][]bool{{true, false, true}, {false, false, true}}
	c := fromBits(rows)
	if c.N != 2 || c.L != 3 {
		t.Fatal("shape wrong")
	}
	if !c.Bit(0, 0) || c.Bit(1, 0) || !c.Bit(1, 2) {
		t.Fatal("content wrong")
	}
	cl := cloneCodes(c)
	if !equalCodes(c, cl) {
		t.Fatal("clone should be equal")
	}
	cl.SetBit(0, 1, true)
	if equalCodes(c, cl) {
		t.Fatal("clone should be independent")
	}
}

func TestMemoryBytes(t *testing.T) {
	c := NewCodes(1000, 64)
	if c.MemoryBytes() != 8000 {
		t.Fatalf("packed bytes = %d", c.MemoryBytes())
	}
}

func TestTopKHammingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := NewCodes(100, 48)
	for i := 0; i < 100; i++ {
		for b := 0; b < 48; b++ {
			base.SetBit(i, b, rng.Intn(2) == 1)
		}
	}
	q := NewCodes(1, 48)
	for b := 0; b < 48; b++ {
		q.SetBit(0, b, rng.Intn(2) == 1)
	}
	got := TopKHamming(base, q.Code(0), 10)
	if len(got) != 10 {
		t.Fatalf("got %d results", len(got))
	}
	// Verify ordering and optimality by brute force.
	dist := func(i int) int { return HammingWords(base.Code(i), q.Code(0)) }
	for i := 1; i < len(got); i++ {
		if dist(got[i-1]) > dist(got[i]) {
			t.Fatal("results not sorted by distance")
		}
		if dist(got[i-1]) == dist(got[i]) && got[i-1] > got[i] {
			t.Fatal("ties not broken by index")
		}
	}
	worst := dist(got[9])
	inSet := map[int]bool{}
	for _, i := range got {
		inSet[i] = true
	}
	for i := 0; i < 100; i++ {
		if !inSet[i] && dist(i) < worst {
			t.Fatalf("point %d (d=%d) closer than worst retrieved (%d) but missing", i, dist(i), worst)
		}
	}
}

func TestTopKEuclideanExact(t *testing.T) {
	x := vec.NewMatrix(5, 1)
	for i := 0; i < 5; i++ {
		x.Set(i, 0, float64(i))
	}
	ds := dataset.FromMatrix(x)
	got := TopKEuclidean(ds, []float64{2.2}, 3)
	want := []int{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestTopKClampsToN(t *testing.T) {
	base := NewCodes(3, 8)
	if len(TopKHamming(base, base.Code(0), 10)) != 3 {
		t.Fatal("k must clamp to N")
	}
}

func TestGroundTruthSelfNeighbour(t *testing.T) {
	ds := dataset.GISTLike(50, 4, 3, 3)
	gt := GroundTruth(ds, ds, 1, 1)
	for q := range gt {
		if gt[q][0] != q {
			t.Fatalf("query %d: self must be its own nearest neighbour, got %d", q, gt[q][0])
		}
	}
}

func TestPrecisionBounds(t *testing.T) {
	truth := [][]int{{1, 2, 3}, {4, 5, 6}}
	perfect := [][]int{{3, 2, 1}, {6, 5, 4}}
	if p := Precision(truth, perfect); p != 1 {
		t.Fatalf("perfect precision = %v", p)
	}
	miss := [][]int{{7, 8, 9}, {10, 11, 12}}
	if p := Precision(truth, miss); p != 0 {
		t.Fatalf("zero precision = %v", p)
	}
	half := [][]int{{1, 8}, {4, 12}}
	if p := Precision(truth, half); p != 0.5 {
		t.Fatalf("half precision = %v", p)
	}
}

func TestRankOfTrueNNTieIsTopRank(t *testing.T) {
	base := NewCodes(3, 8)
	// All base codes identical → all distances tie → rank must be 1.
	q := NewCodes(1, 8)
	q.SetBit(0, 3, true)
	if r := RankOfTrueNN(base, q.Code(0), 2); r != 1 {
		t.Fatalf("tied rank = %d, want 1 (paper's tie rule)", r)
	}
}

func TestRecallAtRMonotoneInR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := NewCodes(60, 32)
	queries := NewCodes(20, 32)
	for i := 0; i < 60; i++ {
		for b := 0; b < 32; b++ {
			base.SetBit(i, b, rng.Intn(2) == 1)
		}
	}
	trueNN := make([]int, 20)
	for q := 0; q < 20; q++ {
		for b := 0; b < 32; b++ {
			queries.SetBit(q, b, rng.Intn(2) == 1)
		}
		trueNN[q] = rng.Intn(60)
	}
	rs := []int{1, 5, 10, 30, 60}
	rec := RecallAtR(base, queries, trueNN, rs)
	for i := 1; i < len(rec); i++ {
		if rec[i] < rec[i-1] {
			t.Fatalf("recall not monotone: %v", rec)
		}
	}
	if rec[len(rec)-1] != 1 {
		t.Fatalf("recall@N must be 1, got %v", rec[len(rec)-1])
	}
}

func TestRecallPerfectCodesGivePerfectRecall(t *testing.T) {
	// Queries identical to their true NN codes → rank 1 always.
	rng := rand.New(rand.NewSource(5))
	base := NewCodes(30, 16)
	for i := 0; i < 30; i++ {
		for b := 0; b < 16; b++ {
			base.SetBit(i, b, rng.Intn(2) == 1)
		}
	}
	queries := NewCodes(10, 16)
	trueNN := make([]int, 10)
	for q := 0; q < 10; q++ {
		trueNN[q] = q * 3
		copy(queries.Code(q), base.Code(q*3))
	}
	rec := RecallAtR(base, queries, trueNN, []int{1})
	if rec[0] != 1 {
		t.Fatalf("recall@1 = %v, want 1", rec[0])
	}
}

func BenchmarkHamming64(b *testing.B) {
	c := NewCodes(2, 64)
	c.Data[0] = 0xDEADBEEF
	c.Data[1] = 0x12345678
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HammingWords(c.Code(0), c.Code(1))
	}
}

func TestWord64MatchesBits(t *testing.T) {
	c := NewCodes(3, 40)
	c.SetBit(0, 0, true)
	c.SetBit(0, 39, true)
	c.SetBit(2, 17, true)
	for i := 0; i < 3; i++ {
		var want uint64
		for b := 0; b < 40; b++ {
			if c.Bit(i, b) {
				want |= 1 << uint(b)
			}
		}
		if c.Word64(i) != want {
			t.Fatalf("code %d: Word64 %x, bits say %x", i, c.Word64(i), want)
		}
	}
	c.SetWord64(1, 0b1011)
	for b, want := range []bool{true, true, false, true} {
		if c.Bit(1, b) != want {
			t.Fatalf("SetWord64 bit %d = %v, want %v", b, c.Bit(1, b), want)
		}
	}
}

func TestCopyCode(t *testing.T) {
	src := NewCodes(2, 100) // two words per code
	src.SetBit(1, 3, true)
	src.SetBit(1, 99, true)
	dst := NewCodes(4, 100)
	dst.CopyCode(2, src, 1)
	for b := 0; b < 100; b++ {
		if dst.Bit(2, b) != src.Bit(1, b) {
			t.Fatalf("bit %d not copied", b)
		}
	}
}
