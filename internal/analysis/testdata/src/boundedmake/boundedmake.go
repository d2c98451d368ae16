// Package boundedmake is the parmac-vet fixture for the boundedmake
// analyzer: an allocation sized by a decoded or request-supplied value needs
// a bound check against a budget first (the hardened LoadCodes pattern).
package boundedmake

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"strconv"

	"repro/internal/cluster"
)

const maxElems = 1 << 20

func unbounded(dec *json.Decoder) ([]float64, error) {
	var n int
	if err := dec.Decode(&n); err != nil {
		return nil, err
	}
	return make([]float64, n), nil // want `make sized by "n", which flows from decoded input`
}

func bounded(dec *json.Decoder) ([]float64, error) {
	var n int
	if err := dec.Decode(&n); err != nil {
		return nil, err
	}
	if n < 0 || n > maxElems {
		return nil, errors.New("header out of budget")
	}
	return make([]float64, n), nil
}

func unboundedHeader(b []byte) []byte {
	n := binary.LittleEndian.Uint32(b)
	return make([]byte, n) // want `make sized by "n", which flows from decoded input`
}

// taintThroughArithmetic follows the value through assignments and
// conversions: words derives from the decoded count.
func taintThroughArithmetic(dec *json.Decoder) ([]uint64, error) {
	var rows int
	if err := dec.Decode(&rows); err != nil {
		return nil, err
	}
	words := (rows + 63) / 64
	return make([]uint64, words), nil // want `make sized by "words", which flows from decoded input`
}

func boundedByMin(b []byte) []byte {
	n := int(binary.LittleEndian.Uint32(b))
	return make([]byte, min(n, maxElems))
}

// lenOfPayload is bounded by the bytes actually received, so it never taints.
func lenOfPayload(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func parsedButChecked(s string) ([]int, error) {
	k, err := strconv.Atoi(s)
	if err != nil || k <= 0 || k > maxElems {
		return nil, errors.New("bad k")
	}
	return make([]int, k), nil
}

const maxTableBits = 16

// postingTablesUnbounded is the MIH posting-list build pattern gone wrong: a
// dense substring table sized 1<<bits where bits came off the wire. A lying
// header turns this into a multi-gigabyte allocation before the first id is
// even read.
func postingTablesUnbounded(dec *json.Decoder) ([][]int32, error) {
	var bits int
	if err := dec.Decode(&bits); err != nil {
		return nil, err
	}
	return make([][]int32, 1<<uint(bits)), nil // want `make sized by "bits", which flows from decoded input`
}

// postingTablesBounded is the accepted shape (retrieval.NewMIHIndex): the
// substring width is range-checked against the block-width cap before the
// dense table is allocated.
func postingTablesBounded(dec *json.Decoder) ([][]int32, error) {
	var bits int
	if err := dec.Decode(&bits); err != nil {
		return nil, err
	}
	if bits < 1 || bits > maxTableBits {
		return nil, errors.New("table width out of range")
	}
	return make([][]int32, 1<<uint(bits)), nil
}

// wireIntUnbounded sizes a slice by an int read off the cluster wire.
func wireIntUnbounded(r *cluster.WireReader) []float64 {
	n := r.Int()
	return make([]float64, n) // want `make sized by "n", which flows from decoded input`
}

// wireLenBounded is the accepted shape: WireReader.Len checks a count
// against the bytes left before returning it.
func wireLenBounded(r *cluster.WireReader) []float64 {
	return make([]float64, r.Len(8))
}
