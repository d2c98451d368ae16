package dataset

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestClustersShapeAndDeterminism(t *testing.T) {
	cfg := ClusterConfig{N: 100, D: 8, Clusters: 4, Seed: 42}
	a, la := Clusters(cfg)
	b, lb := Clusters(cfg)
	if a.N != 100 || a.D != 8 {
		t.Fatalf("shape %dx%d", a.N, a.D)
	}
	for i := 0; i < a.N; i++ {
		if la[i] != lb[i] {
			t.Fatal("labels not deterministic")
		}
		pa, pb := a.Point(i, nil), b.Point(i, nil)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatal("points not deterministic")
			}
		}
		if la[i] < 0 || la[i] >= 4 {
			t.Fatalf("label out of range: %d", la[i])
		}
	}
	c, _ := Clusters(ClusterConfig{N: 100, D: 8, Clusters: 4, Seed: 43})
	if a.Point(0, nil)[0] == c.Point(0, nil)[0] {
		t.Fatal("different seeds should differ")
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	ds, _ := Clusters(ClusterConfig{N: 50, D: 6, Clusters: 3, Seed: 1})
	q := ds.Quantize()
	if q.Dequant() == nil {
		t.Fatal("Quantize must produce byte-backed dataset")
	}
	if len(q.bytes) != 50*6 || q.x != nil {
		t.Fatalf("byte footprint = %d", len(q.bytes))
	}
	if 8*len(ds.x.Data) != 50*6*8 || ds.bytes != nil {
		t.Fatalf("float footprint = %d", 8*len(ds.x.Data))
	}
	// Quantisation error bounded by half a step of the range.
	m := ds.Matrix()
	lo, hi := m.Data[0], m.Data[0]
	for _, v := range m.Data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	step := (hi - lo) / 255
	buf := make([]float64, 6)
	for i := 0; i < 50; i++ {
		orig := ds.Point(i, nil)
		got := q.Point(i, buf)
		for j := range orig {
			if math.Abs(orig[j]-got[j]) > step {
				t.Fatalf("quantisation error %v exceeds step %v", math.Abs(orig[j]-got[j]), step)
			}
		}
	}
}

// TestDequantTableMatchesExpression: for every byte value and several ranges,
// negative lo included, the table and Point give bit for bit the value of
// the expression Point evaluated per feature before the table existed.
func TestDequantTableMatchesExpression(t *testing.T) {
	all := make([]uint8, 256)
	for v := range all {
		all[v] = uint8(v)
	}
	for _, r := range [][2]float64{{0, 1}, {-1.7, 2.3}, {-3, -0.5}, {0.1, 255.9}, {-1e-3, 1e6}, {-2.25, 0}} {
		lo, hi := r[0], r[1]
		ds := FromBytes(2, 128, all, lo, hi)
		scale := (hi - lo) / 255
		for i := 0; i < 2; i++ {
			row := ds.Point(i, nil)
			for j, b := range ds.ByteRow(i) {
				want := math.Float64bits(lo + scale*float64(b))
				if math.Float64bits(ds.Dequant()[b]) != want || math.Float64bits(row[j]) != want {
					t.Fatalf("[%g, %g] byte %d: table %v, Point %v, expression %v",
						lo, hi, b, ds.Dequant()[b], row[j], lo+scale*float64(b))
				}
			}
		}
	}
	if f, _ := Clusters(ClusterConfig{N: 3, D: 2, Seed: 1}); f.Dequant() != nil {
		t.Fatal("a float-backed dataset has no dequantisation table")
	}
}

func TestPointAliasingAndCopy(t *testing.T) {
	ds, _ := Clusters(ClusterConfig{N: 10, D: 4, Clusters: 2, Seed: 2})
	dst := make([]float64, 4)
	p := ds.Point(3, dst)
	if &p[0] != &dst[0] {
		t.Fatal("Point must use provided dst")
	}
	alias := ds.Point(3, nil)
	if alias[0] != dst[0] {
		t.Fatal("copies disagree")
	}
}

func TestSubset(t *testing.T) {
	ds, _ := Clusters(ClusterConfig{N: 20, D: 3, Clusters: 2, Seed: 3})
	sub := ds.Subset([]int{5, 7, 9})
	if sub.N != 3 || sub.D != 3 {
		t.Fatal("subset shape wrong")
	}
	want := ds.Point(7, nil)
	got := sub.Point(1, nil)
	for j := range want {
		if want[j] != got[j] {
			t.Fatal("subset content wrong")
		}
	}

	// A byte-backed subset keeps the bytes and the source's table.
	q := ds.Quantize()
	idx := []int{9, 2, 17, 2}
	qs := q.Subset(idx)
	if qs.N != len(idx) || qs.D != q.D || qs.Dequant() != q.Dequant() {
		t.Fatal("byte-backed subset: wrong shape or not sharing the source's Dequant table")
	}
	for k, i := range idx {
		if string(qs.ByteRow(k)) != string(q.ByteRow(i)) {
			t.Fatalf("byte-backed subset: ByteRow(%d) differs from source row %d", k, i)
		}
		want, got := q.Point(i, nil), qs.Point(k, nil)
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
				t.Fatalf("byte-backed subset: Point(%d)[%d] differs from source row %d", k, j, i)
			}
		}
	}
}

func TestShardIndicesEqual(t *testing.T) {
	shards := ShardIndices(10, 4, nil)
	sizes := []int{3, 3, 2, 2}
	seen := map[int]bool{}
	for i, s := range shards {
		if len(s) != sizes[i] {
			t.Fatalf("shard %d size %d, want %d", i, len(s), sizes[i])
		}
		for _, idx := range s {
			if seen[idx] {
				t.Fatalf("index %d in two shards", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("union covers %d of 10", len(seen))
	}
}

func TestShardSizesWeighted(t *testing.T) {
	// α = (1, 3): machine 2 is 3× faster so gets 3× the data (§4.3).
	sizes := ShardSizes(100, 2, []float64{1, 3})
	if sizes[0] != 25 || sizes[1] != 75 {
		t.Fatalf("weighted sizes = %v", sizes)
	}
}

func TestShardSizesProperty(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw)%5000 + 1
		p := int(pRaw)%16 + 1
		sizes := ShardSizes(n, p, nil)
		total := 0
		minSz, maxSz := sizes[0], sizes[0]
		for _, s := range sizes {
			total += s
			if s < minSz {
				minSz = s
			}
			if s > maxSz {
				maxSz = s
			}
		}
		// Exact cover and near-perfect balance.
		return total == n && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShardSizesWeightedProperty(t *testing.T) {
	f := func(nRaw uint16, w1, w2, w3 uint8) bool {
		n := int(nRaw)%3000 + 3
		w := []float64{float64(w1%7 + 1), float64(w2%7 + 1), float64(w3%7 + 1)}
		sizes := ShardSizes(n, 3, w)
		total := 0
		wsum := w[0] + w[1] + w[2]
		for i, s := range sizes {
			total += s
			exact := float64(n) * w[i] / wsum
			if math.Abs(float64(s)-exact) > 1 {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffledShardIndicesCoverAll(t *testing.T) {
	shards := ShuffledShardIndices(37, 5, nil, 7)
	seen := map[int]bool{}
	for _, s := range shards {
		for _, idx := range s {
			if seen[idx] {
				t.Fatal("duplicate index")
			}
			seen[idx] = true
		}
	}
	if len(seen) != 37 {
		t.Fatalf("covered %d of 37", len(seen))
	}
}

func TestSIFTLikeIsByteBacked(t *testing.T) {
	ds := SIFTLike(64, 16, 4, 11)
	if ds.Dequant() == nil {
		t.Fatal("SIFTLike must be byte-backed")
	}
	if ds.N != 64 || ds.D != 16 {
		t.Fatal("shape wrong")
	}
}

// WriteCSV writes the dataset as CSV (one point per row), the inverse of
// LoadCSV.
func (ds *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rec := make([]string, ds.D)
	buf := make([]float64, ds.D)
	for i := 0; i < ds.N; i++ {
		x := ds.Point(i, buf)
		for j, v := range x {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func TestCSVRoundTrip(t *testing.T) {
	ds, _ := Clusters(ClusterConfig{N: 25, D: 4, Clusters: 3, Seed: 30})
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != 25 || back.D != 4 {
		t.Fatalf("shape %dx%d", back.N, back.D)
	}
	for i := 0; i < 25; i++ {
		a, b := ds.Point(i, nil), back.Point(i, nil)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("point %d dim %d: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestLoadCSVSkipsHeader(t *testing.T) {
	ds, err := LoadCSV(strings.NewReader("x,y\n1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ds.N != 2 || ds.D != 2 || ds.Point(1, nil)[0] != 3 {
		t.Fatalf("parsed %dx%d", ds.N, ds.D)
	}
}

func TestLoadCSVRejectsBadInput(t *testing.T) {
	cases := []string{
		"",              // empty
		"a,b\n",         // header only
		"1,2\n3\n",      // ragged
		"1,2\n3,oops\n", // non-numeric past the header
	}
	for i, c := range cases {
		if _, err := LoadCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestManifoldGeneratorProperties(t *testing.T) {
	base, queries := ManifoldWithQueries(100, 10, 8, 3, 31)
	if base.N != 100 || queries.N != 10 || base.D != 8 {
		t.Fatal("shapes wrong")
	}
	// Deterministic.
	b2, _ := ManifoldWithQueries(100, 10, 8, 3, 31)
	for j, v := range base.Point(0, nil) {
		if b2.Point(0, nil)[j] != v {
			t.Fatal("manifold not deterministic")
		}
	}
	// Bounded by sin(±1) plus noise.
	for i := 0; i < base.N; i++ {
		for _, v := range base.Point(i, nil) {
			if math.Abs(v) > 1.5 {
				t.Fatalf("value %v out of range", v)
			}
		}
	}
}
