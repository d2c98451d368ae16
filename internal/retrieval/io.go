package retrieval

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary persistence for packed code sets — the "index" a retrieval service
// would keep in RAM (the paper's 8 GB-for-a-billion-points argument). Format:
// magic, version, N, L as little-endian uint32/uint64, then the raw words.
//
// Loading is written for untrusted input: a service reloads indexes from
// disk or an admin endpoint, so a malformed header must produce an error,
// never an allocation sized by the attacker. The header is validated against
// a byte budget before any payload storage exists, and the payload is
// streamed in fixed-size chunks so storage only grows as bytes actually
// arrive.

var codesMagic = [4]byte{'P', 'M', 'A', 'C'}

const codesVersion = 1

// DefaultMaxIndexBytes is the payload budget LoadCodesLimit enforces when
// given maxBytes <= 0: 1 GiB of packed words, i.e. ~134M 64-bit codes.
// Services that keep larger indexes in RAM pass their own budget.
const DefaultMaxIndexBytes = 1 << 30

// loadChunkWords is the streaming granule of LoadCodesLimit: 64Ki words
// (512 KiB) per read, small enough that a truncated payload fails before any
// large allocation and large enough that the copy loop is not the bottleneck.
const loadChunkWords = 64 << 10

// Save writes the codes in the binary index format.
func (c *Codes) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(codesMagic[:]); err != nil {
		return err
	}
	hdr := []uint64{codesVersion, uint64(c.N), uint64(c.L)}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, c.Data); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadCodesLimit reads a code set written by Save, rejecting any input whose
// header declares more than maxBytes of payload (maxBytes <= 0 means
// DefaultMaxIndexBytes). The header is fully validated — shape bounds, the
// byte budget, and int overflow of N·words on 32-bit platforms — before any
// payload storage is allocated; the payload itself is streamed in
// loadChunkWords chunks, so storage grows only as fast as real bytes arrive
// and a lying header costs at most one chunk. Trailing bytes after the
// declared payload are an error: an index file is exactly header + payload.
func LoadCodesLimit(r io.Reader, maxBytes int64) (*Codes, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxIndexBytes
	}
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("retrieval: read magic: %w", err)
	}
	if magic != codesMagic {
		return nil, fmt.Errorf("retrieval: bad magic %q", magic)
	}
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("retrieval: read header: %w", err)
	}
	version := binary.LittleEndian.Uint64(hdr[0:8])
	n := binary.LittleEndian.Uint64(hdr[8:16])
	l := binary.LittleEndian.Uint64(hdr[16:24])
	if version != codesVersion {
		return nil, fmt.Errorf("retrieval: unsupported version %d", version)
	}
	if l == 0 || l > 1<<20 || n > 1<<40 {
		return nil, fmt.Errorf("retrieval: implausible header N=%d L=%d", n, l)
	}
	words := (l + 63) / 64
	// n ≤ 2^40 and words ≤ 2^15, so the product cannot wrap uint64.
	totalWords := n * words
	if totalWords > uint64(maxBytes)/8 {
		return nil, fmt.Errorf("retrieval: declared payload %d bytes (N=%d L=%d) exceeds budget %d",
			totalWords*8, n, l, maxBytes)
	}
	if totalWords > uint64(math.MaxInt)/8 {
		return nil, fmt.Errorf("retrieval: index N=%d L=%d too large for this platform", n, l)
	}
	total := int(totalWords)
	data := make([]uint64, 0, min(total, loadChunkWords))
	buf := make([]byte, 8*min(total, loadChunkWords))
	for len(data) < total {
		want := min(total-len(data), loadChunkWords)
		b := buf[:8*want]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("retrieval: read words (%d of %d): %w", len(data), total, err)
		}
		for i := 0; i < want; i++ {
			data = append(data, binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("retrieval: trailing bytes after %d-word payload", total)
		}
		return nil, fmt.Errorf("retrieval: after payload: %w", err)
	}
	return &Codes{N: int(n), L: int(l), Words: int(words), Data: data}, nil
}
