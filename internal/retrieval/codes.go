// Package retrieval implements the fast approximate image-retrieval
// evaluation pipeline of the paper (§3.1, §8.1): binary codes packed into
// 64-bit words (the paper's "10⁹ points with 64 bits fit in 8 GB" argument),
// Hamming-distance search via popcount, exact Euclidean ground truth, the
// precision measure used for CIFAR/SIFT-10K/SIFT-1M and the recall@R measure
// used for SIFT-1B.
package retrieval

import (
	"fmt"
	"math/bits"
)

// Codes stores N binary codes of L bits each, packed into ⌈L/64⌉ uint64
// words per code.
type Codes struct {
	N, L  int
	Words int // words per code
	Data  []uint64
}

// NewCodes allocates zeroed codes.
func NewCodes(n, l int) *Codes {
	if l <= 0 {
		panic("retrieval: code length must be positive")
	}
	w := (l + 63) / 64
	return &Codes{N: n, L: l, Words: w, Data: make([]uint64, n*w)}
}

// Code returns code i as an aliasing word slice.
func (c *Codes) Code(i int) []uint64 { return c.Data[i*c.Words : (i+1)*c.Words] }

// Bit reports bit b of code i.
func (c *Codes) Bit(i, b int) bool {
	return c.Data[i*c.Words+b/64]&(1<<(uint(b)%64)) != 0
}

// SetBit sets bit b of code i to v.
func (c *Codes) SetBit(i, b int, v bool) {
	idx := i*c.Words + b/64
	mask := uint64(1) << (uint(b) % 64)
	if v {
		c.Data[idx] |= mask
	} else {
		c.Data[idx] &^= mask
	}
}

// Word64 returns the first packed word of code i — the whole code when
// L <= 64, which is every code this reproduction trains (the Z solver packs
// a code into one uint64). Hot paths read it instead of L Bit calls.
func (c *Codes) Word64(i int) uint64 { return c.Data[i*c.Words] }

// SetWord64 replaces the first packed word of code i. The caller must not set
// bits at or above L; for L <= 64 this writes the whole code in one store.
func (c *Codes) SetWord64(i int, w uint64) { c.Data[i*c.Words] = w }

// CopyCode copies code j of src into code i of c word by word. The code
// lengths must match.
func (c *Codes) CopyCode(i int, src *Codes, j int) {
	if c.L != src.L {
		panic(fmt.Sprintf("retrieval: CopyCode length mismatch %d vs %d", c.L, src.L))
	}
	copy(c.Code(i), src.Code(j))
}

// HammingWords returns the Hamming distance between two packed codes.
func HammingWords(a, b []uint64) int {
	checkWidth(len(a), len(b))
	d := 0
	for i, w := range a {
		d += bits.OnesCount64(w ^ b[i])
	}
	return d
}

// checkWidth panics unless two packed codes have the same word count.
func checkWidth(a, b int) {
	if a != b {
		panic(fmt.Sprintf("retrieval: code width mismatch %d vs %d", a, b))
	}
}

// MemoryBytes reports the packed storage footprint (8 bytes per word), the
// quantity behind the paper's "auxiliary coordinates take only 6.25% of the
// data" accounting (§8.4).
func (c *Codes) MemoryBytes() int { return 8 * len(c.Data) }
