package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// The wire codec: how a Message payload becomes bytes on a backend that
// crosses process boundaries (cluster/tcp). In-process backends never call
// it; payloads there travel as Go values.
//
// A payload is a 2-byte kind followed by that kind's body. Bodies are fixed
// little-endian layouts written by the type's own AppendWire method: an int
// is 8 bytes (two's complement), a float64 its 8 IEEE-754 bytes, a bool one
// byte (0 or 1), and a string or slice a 4-byte element count followed by
// the elements. A nested payload — a Token's submodel — is a kind and body
// again. There are no type descriptors and no optional fields, so every
// value has exactly one encoding and the decoders accept nothing else:
// decoding then re-encoding any accepted input reproduces it byte for byte,
// and the golden tests pin each type's bytes exactly.
//
// Kinds are allocated per package: below 16 the builtins here, 16–31
// internal/core, 32–47 internal/binauto; tests use 1000 and up.

const (
	kindNil uint16 = iota
	kindInt
	kindString
	kindInts
	kindFloat64s

	// firstRegisteredKind is the lowest kind RegisterWire accepts.
	firstRegisteredKind = 16
)

// maxNesting bounds how deeply payloads nest (a Token's submodel is depth
// 2), so hostile bytes cannot recurse the decoder arbitrarily deep.
const maxNesting = 4

// wireAppender is what every registered payload type implements: append the
// type's body (not its kind) to b.
type wireAppender interface {
	AppendWire(b []byte) []byte
}

// The codec registry, filled from init functions before any goroutine
// encodes or decodes, and read-only afterwards.
var (
	wireKinds    = map[reflect.Type]uint16{}
	wireDecoders = map[uint16]func(*WireReader) any{}
)

// RegisterWire makes a payload type sendable across processes. sample's
// dynamic type (a pointer type for pointer payloads) must have an
// AppendWire([]byte) []byte method writing the body; decode reads the same
// body back and returns a value of that type, reporting malformed input
// through r.Failf. Call it from init: registering a kind or type twice, or a
// kind below 16, panics.
func RegisterWire(kind uint16, sample any, decode func(r *WireReader) any) {
	t := reflect.TypeOf(sample)
	if _, ok := sample.(wireAppender); !ok {
		panic(fmt.Sprintf("cluster: RegisterWire(%d, %v): no AppendWire method", kind, t))
	}
	if kind < firstRegisteredKind {
		panic(fmt.Sprintf("cluster: RegisterWire(%d, %v): kinds below %d are reserved", kind, t, firstRegisteredKind))
	}
	if _, dup := wireDecoders[kind]; dup {
		panic(fmt.Sprintf("cluster: wire kind %d registered twice", kind))
	}
	if _, dup := wireKinds[t]; dup {
		panic(fmt.Sprintf("cluster: wire type %v registered twice", t))
	}
	wireKinds[t] = kind
	wireDecoders[kind] = decode
}

// AppendPayload appends v's kind and body to b. The builtins nil, int,
// string, []int and []float64 are always encodable; any other type must be
// registered with RegisterWire, and sending one that is not is a programming
// error: AppendPayload panics with "no wire codec for <type>".
func AppendPayload(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return appendKind(b, kindNil)
	case int:
		return AppendInt(appendKind(b, kindInt), x)
	case string:
		b = AppendLen(appendKind(b, kindString), len(x))
		return append(b, x...)
	case []int:
		return AppendInts(appendKind(b, kindInts), x)
	case []float64:
		return AppendFloat64s(appendKind(b, kindFloat64s), x)
	}
	kind, ok := wireKinds[reflect.TypeOf(v)]
	if !ok {
		panic(fmt.Sprintf("no wire codec for %T", v))
	}
	return v.(wireAppender).AppendWire(appendKind(b, kind))
}

// DecodePayload decodes one payload that must span exactly b. Short,
// trailing or inconsistent bytes are an error, never a panic. The result
// never aliases b.
func DecodePayload(b []byte) (any, error) {
	r := WireReader{b: b}
	v := r.Payload()
	if r.err == nil && len(r.b) > 0 {
		r.Failf("cluster: wire: %d trailing bytes after the payload", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return v, nil
}

func appendKind(b []byte, kind uint16) []byte {
	return binary.LittleEndian.AppendUint16(b, kind)
}

// AppendInt appends v as 8 little-endian bytes.
func AppendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// AppendFloat64 appends v's IEEE-754 bits as 8 little-endian bytes.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendLen appends an element count, for a slice whose elements the caller
// appends next (read back with WireReader.Len).
func AppendLen(b []byte, n int) []byte {
	if n < 0 || uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("cluster: wire count %d out of range", n))
	}
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

// AppendInts appends a count and the ints.
func AppendInts(b []byte, v []int) []byte {
	b = AppendLen(b, len(v))
	for _, x := range v {
		b = AppendInt(b, x)
	}
	return b
}

// AppendFloat64s appends a count and the floats.
func AppendFloat64s(b []byte, v []float64) []byte {
	b = AppendLen(b, len(v))
	for _, x := range v {
		b = AppendFloat64(b, x)
	}
	return b
}

// WireReader decodes a payload body. Errors are sticky: after the first
// failure — running out of bytes, an invalid value, or a decoder's own
// Failf — every read returns a zero value, so a decoder reads its fields
// unconditionally and the caller checks once at the end. Counts are checked
// against the bytes remaining before anything is allocated for them.
type WireReader struct {
	b     []byte
	err   error
	depth int
}

// Failf records a decode error unless one is already recorded.
func (r *WireReader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// next consumes n bytes, or fails and returns nil.
func (r *WireReader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.Failf("cluster: wire: payload truncated (need %d bytes, have %d)", n, len(r.b))
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// Int reads an int.
func (r *WireReader) Int() int {
	p := r.next(8)
	if p == nil {
		return 0
	}
	return r.intAt(p)
}

func (r *WireReader) intAt(p []byte) int {
	v := int64(binary.LittleEndian.Uint64(p))
	if int64(int(v)) != v {
		r.Failf("cluster: wire: int %d does not fit this platform's int", v)
		return 0
	}
	return int(v)
}

// Float64 reads a float64.
func (r *WireReader) Float64() float64 {
	p := r.next(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

// Bool reads a bool; any byte but 0 or 1 is an error.
func (r *WireReader) Bool() bool {
	p := r.next(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		r.Failf("cluster: wire: bool byte %#x", p[0])
		return false
	}
	return p[0] == 1
}

// Len reads an element count written by AppendLen and fails unless that
// many elements of at least elemSize bytes each fit in the bytes left. It
// returns 0 after a failure.
func (r *WireReader) Len(elemSize int) int {
	p := r.next(4)
	if p == nil {
		return 0
	}
	n := binary.LittleEndian.Uint32(p)
	if uint64(n)*uint64(max(elemSize, 1)) > uint64(len(r.b)) {
		r.Failf("cluster: wire: count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

// Ints reads a count and that many ints. An empty list decodes as nil.
func (r *WireReader) Ints() []int {
	p := r.next(8 * r.Len(8))
	if len(p) == 0 {
		return nil
	}
	out := make([]int, len(p)/8)
	for i := range out {
		out[i] = r.intAt(p[8*i:])
	}
	return out
}

// Float64s reads a count and that many floats. An empty list decodes as
// nil.
func (r *WireReader) Float64s() []float64 {
	p := r.next(8 * r.Len(8))
	if len(p) == 0 {
		return nil
	}
	out := make([]float64, len(p)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

func (r *WireReader) str() string {
	return string(r.next(r.Len(1)))
}

// Payload reads a nested payload: a kind, then that kind's body.
func (r *WireReader) Payload() any {
	p := r.next(2)
	if p == nil {
		return nil
	}
	if r.depth == maxNesting {
		r.Failf("cluster: wire: payloads nested deeper than %d", maxNesting)
		return nil
	}
	r.depth++
	v := r.body(binary.LittleEndian.Uint16(p))
	r.depth--
	if r.err != nil {
		return nil
	}
	return v
}

func (r *WireReader) body(kind uint16) any {
	switch kind {
	case kindNil:
		return nil
	case kindInt:
		return r.Int()
	case kindString:
		return r.str()
	case kindInts:
		return r.Ints()
	case kindFloat64s:
		return r.Float64s()
	}
	decode, ok := wireDecoders[kind]
	if !ok {
		r.Failf("cluster: wire: unknown payload kind %d", kind)
		return nil
	}
	return decode(r)
}
