package retrieval

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

func TestCodesSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewCodes(137, 48)
	for i := range c.Data {
		c.Data[i] = rng.Uint64()
	}
	// Mask unused high bits so Equal compares canonical content.
	for i := 0; i < c.N; i++ {
		c.Code(i)[0] &= (1 << 48) - 1
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCodesLimit(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !equalCodes(c, back) {
		t.Fatal("codes differ after round trip")
	}
}

func TestLoadCodesRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"nope",
		"PMACgarbage-that-is-not-a-header",
	}
	for i, c := range cases {
		if _, err := LoadCodesLimit(strings.NewReader(c), 0); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestLoadCodesRejectsWrongVersion(t *testing.T) {
	c := NewCodes(2, 8)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // corrupt the version field
	if _, err := LoadCodesLimit(bytes.NewReader(raw), 0); err == nil {
		t.Fatal("expected version error")
	}
}

func TestLoadCodesTruncatedPayload(t *testing.T) {
	c := NewCodes(10, 64)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-8]
	if _, err := LoadCodesLimit(bytes.NewReader(raw), 0); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestRankOfTrueNNAgainstSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(40)
		base := NewCodes(n, 24)
		for i := range base.Data {
			base.Data[i] = rng.Uint64() & ((1 << 24) - 1)
		}
		q := NewCodes(1, 24)
		q.Data[0] = rng.Uint64() & ((1 << 24) - 1)
		target := rng.Intn(n)
		got := RankOfTrueNN(base, q.Code(0), target)
		// Oracle: 1 + number of strictly closer points.
		d := HammingWords(base.Code(target), q.Code(0))
		want := 1
		for i := 0; i < n; i++ {
			if i != target && HammingWords(base.Code(i), q.Code(0)) < d {
				want++
			}
		}
		if got != want {
			t.Fatalf("trial %d: rank %d, oracle %d", trial, got, want)
		}
	}
}

// craftHeader builds magic + (version, n, l) — the 28-byte prefix of the
// index format — for malformed-input tests.
func craftHeader(version, n, l uint64) []byte {
	buf := make([]byte, 0, 28)
	buf = append(buf, 'P', 'M', 'A', 'C')
	for _, v := range []uint64{version, n, l} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf = append(buf, b[:]...)
	}
	return buf
}

func TestLoadCodesHugeHeaderRejectedWithoutAllocation(t *testing.T) {
	// The attack from the serving tier's point of view: a 28-byte file whose
	// header declares N·L ≈ 2^54 words. Pre-hardening this allocated the full
	// slice before reading a single payload word; now it must error against
	// the byte budget without allocating payload storage.
	raw := craftHeader(1, 1<<40, 1<<20)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := LoadCodesLimit(bytes.NewReader(raw), 0); err == nil {
			t.Fatal("expected budget error")
		}
	})
	// Reader + error plumbing allocate a handful of objects; payload storage
	// for 2^54 words would be impossible, and even one streaming chunk would
	// push this over 20.
	if allocs > 20 {
		t.Fatalf("huge-header rejection allocated %v objects", allocs)
	}
	_, err := LoadCodesLimit(bytes.NewReader(raw), 0)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("want budget error, got %v", err)
	}
}

func TestLoadCodesLimitCustomBudget(t *testing.T) {
	c := NewCodes(64, 64) // 512-byte payload
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCodesLimit(bytes.NewReader(buf.Bytes()), 256); err == nil {
		t.Fatal("expected error under 256-byte budget")
	}
	back, err := LoadCodesLimit(bytes.NewReader(buf.Bytes()), 512)
	if err != nil {
		t.Fatalf("512-byte budget should fit exactly: %v", err)
	}
	if !equalCodes(c, back) {
		t.Fatal("codes differ after round trip")
	}
	// maxBytes <= 0 falls back to the default budget.
	if _, err := LoadCodesLimit(bytes.NewReader(buf.Bytes()), 0); err != nil {
		t.Fatalf("zero budget should mean default: %v", err)
	}
}

func TestLoadCodesRejectsTrailingBytes(t *testing.T) {
	c := NewCodes(3, 32)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0xFF)
	_, err := LoadCodesLimit(bytes.NewReader(buf.Bytes()), 0)
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}
}

func TestLoadCodesHeaderOnlyTruncation(t *testing.T) {
	// A header that passes validation but has no payload at all must fail on
	// the first streamed chunk, not allocate N·words up front.
	raw := craftHeader(1, 1000, 64)
	if _, err := LoadCodesLimit(bytes.NewReader(raw), 0); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestLoadCodesEmptyIndexRoundTrip(t *testing.T) {
	c := NewCodes(0, 16)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCodesLimit(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != 0 || back.L != 16 {
		t.Fatalf("got N=%d L=%d", back.N, back.L)
	}
}

func TestLoadCodesMultiChunkPayload(t *testing.T) {
	// More words than one streaming chunk, so the chunk loop runs > once.
	n := loadChunkWords + 513
	rng := rand.New(rand.NewSource(5))
	c := NewCodes(n, 64)
	for i := range c.Data {
		c.Data[i] = rng.Uint64()
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCodesLimit(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !equalCodes(c, back) {
		t.Fatal("codes differ after multi-chunk round trip")
	}
}
