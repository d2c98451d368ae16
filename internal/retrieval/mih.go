package retrieval

import (
	"fmt"
	"math"
)

// Multi-index hashing (Norouzi, Punjani & Fleet): split every L-bit code into
// m substrings and bucket the base by each substring value. A query probes the
// m tables in increasing substring-Hamming radius; by pigeonhole, a code whose
// full distance is at most m·(r+1)−1 matches at least one query substring
// within radius r, so once the current k-th best distance drops below m·(r+1)
// every unseen code is strictly farther and the scan stops. Candidates are
// re-ranked with the exact packed-word popcount and kept in a (Dist, Index)
// lexicographic buffer, so the result is bit- and tie-exact identical to the
// linear TopKHammingDist oracle — sublinear work, same answer.

// MaxMIHBlockBits caps a substring width: each table is a dense 1<<width
// bucket array, so the width doubles table memory per bit. 16 bits (65536
// buckets) keeps a table's headers around a megabyte and the radius
// enumeration cheap; block counts are clamped so no block exceeds it.
const MaxMIHBlockBits = 16

// mihBlock is one substring table: bits [off, off+width) of every code,
// bucketed by value. Posting lists hold point ids in increasing order (the
// build walks ids forward), packed as int32 to halve index memory.
type mihBlock struct {
	off, width int
	table      [][]int32
}

// MIHIndex is an immutable multi-index over a packed code set. Build once,
// search from any number of goroutines; mutation means building a new index
// (WithAppended shares untouched posting lists with its parent, so snapshot
// chains stay cheap).
type MIHIndex struct {
	codes  *Codes
	blocks []mihBlock
}

// AutoMIHBlocks picks the block count for an N-point, L-bit index: substring
// width ≈ log2(N) (the MIH paper's rule — buckets then hold O(1) points), so
// m = ⌈L / log2 N⌉, clamped to [1, L] and to widths within MaxMIHBlockBits.
func AutoMIHBlocks(n, l int) int {
	w := 1
	for (1<<uint(w)) < n && w < MaxMIHBlockBits {
		w++
	}
	m := (l + w - 1) / w
	return clampMIHBlocks(m, l)
}

// clampMIHBlocks forces a block count into the representable range: at least
// ⌈L/MaxMIHBlockBits⌉ so every dense table fits the width cap, at most L so
// every block holds at least one bit.
func clampMIHBlocks(m, l int) int {
	if minBlocks := (l + MaxMIHBlockBits - 1) / MaxMIHBlockBits; m < minBlocks {
		m = minBlocks
	}
	if m > l {
		m = l
	}
	if m < 1 {
		m = 1
	}
	return m
}

// NewMIHIndex builds an m-block multi-index over codes. blocks ≤ 0 picks the
// width automatically from N and L; any value is clamped so substring widths
// stay in [1, MaxMIHBlockBits]. Ids are stored as int32, so N must fit.
func NewMIHIndex(codes *Codes, blocks int) (*MIHIndex, error) {
	if codes.N > math.MaxInt32 {
		return nil, fmt.Errorf("retrieval: MIH index over %d points exceeds the int32 id space", codes.N)
	}
	m := blocks
	if m <= 0 {
		m = AutoMIHBlocks(codes.N, codes.L)
	}
	m = clampMIHBlocks(m, codes.L)
	ix := &MIHIndex{codes: codes, blocks: make([]mihBlock, m)}
	base, rem := codes.L/m, codes.L%m
	off := 0
	for b := range ix.blocks {
		width := base
		if b < rem {
			width++
		}
		// The width bound is what makes the dense 1<<width allocation safe
		// even when L arrives from a decoded index header.
		if width < 1 || width > MaxMIHBlockBits {
			return nil, fmt.Errorf("retrieval: MIH block width %d outside [1, %d]", width, MaxMIHBlockBits)
		}
		ix.blocks[b] = mihBlock{off: off, width: width, table: make([][]int32, 1<<uint(width))}
		off += width
	}
	for i := 0; i < codes.N; i++ {
		code := codes.Code(i)
		for b := range ix.blocks {
			blk := &ix.blocks[b]
			v := substrBits(code, blk.off, blk.width)
			blk.table[v] = append(blk.table[v], int32(i))
		}
	}
	return ix, nil
}

// N reports the number of indexed codes.
func (ix *MIHIndex) N() int { return ix.codes.N }

// L reports the code length in bits.
func (ix *MIHIndex) L() int { return ix.codes.L }

// Words reports the packed words per code.
func (ix *MIHIndex) Words() int { return ix.codes.Words }

// substrBits extracts bits [off, off+width) of a packed code as a value.
// width ≤ MaxMIHBlockBits ≤ 64−0, so a substring spans at most two words.
func substrBits(code []uint64, off, width int) uint64 {
	word, sh := off/64, uint(off%64)
	v := code[word] >> sh
	if int(sh)+width > 64 {
		v |= code[word+1] << (64 - sh)
	}
	return v & (1<<uint(width) - 1)
}

// WithAppended returns a new index over the old codes plus extra, sharing
// untouched posting lists with the receiver. The receiver stays valid and
// immutable — this is the copy-on-write snapshot step a streaming ingest
// path publishes through an atomic pointer.
func (ix *MIHIndex) WithAppended(extra *Codes) (*MIHIndex, error) {
	if extra.L != ix.codes.L {
		return nil, fmt.Errorf("retrieval: appending %d-bit codes to a %d-bit MIH index", extra.L, ix.codes.L)
	}
	oldN := ix.codes.N
	if int64(oldN)+int64(extra.N) > math.MaxInt32 {
		return nil, fmt.Errorf("retrieval: MIH index of %d points exceeds the int32 id space", oldN+extra.N)
	}
	codes := NewCodes(oldN+extra.N, ix.codes.L)
	copy(codes.Data, ix.codes.Data)
	copy(codes.Data[oldN*codes.Words:], extra.Data)
	out := &MIHIndex{codes: codes, blocks: make([]mihBlock, len(ix.blocks))}
	for b := range ix.blocks {
		blk := &ix.blocks[b]
		nb := mihBlock{off: blk.off, width: blk.width, table: make([][]int32, len(blk.table))}
		copy(nb.table, blk.table)
		// Buckets that receive new ids are copied before extension, so the
		// parent snapshot's lists are never written through shared backing.
		copied := make([]bool, len(nb.table))
		for j := 0; j < extra.N; j++ {
			v := substrBits(extra.Code(j), blk.off, blk.width)
			if !copied[v] {
				old := nb.table[v]
				nb.table[v] = append(make([]int32, 0, len(old)+1), old...)
				copied[v] = true
			}
			nb.table[v] = append(nb.table[v], int32(oldN+j))
		}
		out.blocks[b] = nb
	}
	return out, nil
}

// MIHOccupancy summarises posting-list skew: pruning degrades when a few
// buckets hold most of the points (every probe that hits them re-ranks the
// bulk of the base), so operators watch max/mean list lengths.
type MIHOccupancy struct {
	Blocks      int     `json:"blocks"`
	Buckets     int     `json:"buckets"`      // table slots across all blocks
	UsedBuckets int     `json:"used_buckets"` // non-empty slots
	MaxList     int     `json:"max_list"`     // longest posting list
	MeanList    float64 `json:"mean_list"`    // mean length over non-empty slots
}

// Occupancy walks the tables and reports the bucket statistics.
func (ix *MIHIndex) Occupancy() MIHOccupancy {
	occ := MIHOccupancy{Blocks: len(ix.blocks)}
	total := 0
	for b := range ix.blocks {
		for _, list := range ix.blocks[b].table {
			occ.Buckets++
			if len(list) == 0 {
				continue
			}
			occ.UsedBuckets++
			total += len(list)
			if len(list) > occ.MaxList {
				occ.MaxList = len(list)
			}
		}
	}
	if occ.UsedBuckets > 0 {
		occ.MeanList = float64(total) / float64(occ.UsedBuckets)
	}
	return occ
}

// MIHSearcher holds the per-goroutine probe state (visited stamps, substring
// scratch) for one index. Not safe for concurrent use; create one per worker.
// The generation-stamped visited array makes dedup across the m tables O(1)
// per candidate with an O(1) reset between queries.
type MIHSearcher struct {
	ix      *MIHIndex
	visited []uint32
	gen     uint32
}

// NewSearcher returns a searcher bound to the index.
func (ix *MIHIndex) NewSearcher() *MIHSearcher {
	return &MIHSearcher{ix: ix, visited: make([]uint32, ix.codes.N)}
}

// Search returns the same top-k as TopKHammingDist(codes, query, k) — exact
// distances, exact (Dist, Index) tie order — by probing the substring tables
// in increasing radius and re-ranking candidates with the full popcount.
// k ≤ 0 returns an empty slice.
func (s *MIHSearcher) Search(query []uint64, k int) []Neighbor {
	ix := s.ix
	k = clampK(k, ix.codes.N)
	out := make([]Neighbor, 0, k)
	if k == 0 {
		return out
	}
	s.gen++
	if s.gen == 0 { // stamp wrap: one O(N) clear every 2^32 queries
		clear(s.visited)
		s.gen = 1
	}
	m := len(ix.blocks)
	maxWidth := 0
	for b := range ix.blocks {
		if w := ix.blocks[b].width; w > maxWidth {
			maxWidth = w
		}
	}
	for r := 0; r <= maxWidth; r++ {
		for b := range ix.blocks {
			blk := &ix.blocks[b]
			if r > blk.width {
				continue
			}
			q := substrBits(query, blk.off, blk.width)
			out = s.probe(blk, q, r, k, query, out)
		}
		// All codes at full distance ≤ m·(r+1)−1 have been seen: a code
		// missed by every table through radius r has every substring distance
		// ≥ r+1, hence full distance ≥ m·(r+1). Once the k-th best beats that
		// bound no unseen code can enter the result, ties included (a tie at
		// the k-th distance would already have been seen).
		if len(out) == k && out[k-1].Dist < (r+1)*m {
			break
		}
	}
	return out
}

// probe visits every bucket of blk whose value lies at substring-Hamming
// distance exactly r from q, re-ranking unseen candidates into out.
func (s *MIHSearcher) probe(blk *mihBlock, q uint64, r, k int, query []uint64, out []Neighbor) []Neighbor {
	if r == 0 {
		return s.rank(blk.table[q], k, query, out)
	}
	// Gosper's hack enumerates the C(width, r) bit masks of popcount r in
	// increasing value order; XOR with the query substring walks the radius-r
	// shell of the table.
	limit := uint64(1) << uint(blk.width)
	for mask := uint64(1)<<uint(r) - 1; mask < limit; {
		out = s.rank(blk.table[q^mask], k, query, out)
		c := mask & -mask
		rr := mask + c
		mask = (rr^mask)>>2/c | rr
	}
	return out
}

// rank folds a posting list into the top-k buffer: skip already-visited ids,
// compute the exact full-code distance for the rest, and insert the ones that
// beat the current k-th best through the linear scan's insertNeighbor. Ids
// arrive out of index order, so the test compares the full (Dist, Index)
// pair, as the helper's search does.
func (s *MIHSearcher) rank(list []int32, k int, query []uint64, out []Neighbor) []Neighbor {
	for _, id32 := range list {
		id := int(id32)
		if s.visited[id] == s.gen {
			continue
		}
		s.visited[id] = s.gen
		n := Neighbor{Index: id, Dist: HammingWords(s.ix.codes.Code(id), query)}
		if len(out) < k || n.before(out[k-1]) {
			out = insertNeighbor(out, k, n)
		}
	}
	return out
}

// Search is the convenience single-shot form: it allocates a searcher per
// call. Repeated callers on one goroutine should hold a MIHSearcher.
func (ix *MIHIndex) Search(query []uint64, k int) []Neighbor {
	return ix.NewSearcher().Search(query, k)
}
