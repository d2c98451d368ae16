package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/cluster"
)

// Wire format: every frame is a fixed 37-byte little-endian header followed
// by a payload in the cluster wire codec (cluster.AppendPayload):
//
//	[0:4)   uint32 payload length
//	[4]     kind
//	[5:37)  four int64s: From, To, Tag, Bytes (the frameData envelope)
//
// A data frame's payload is the message payload. A control frame's payload
// is a []int of its arguments (see frameKind) and its envelope is zero. The
// hub routes data frames on the header alone and forwards their bytes
// untouched; only the receiving endpoint decodes the payload.

// wireVersion names this frame and payload format. A hub refuses a hello
// carrying any other version (frameRefuse), so a mismatched binary fails at
// rendezvous with a message instead of mid-run with a decode error. Bump it
// with any change to the frame or payload bytes; the hello and refuse
// frames themselves must keep their layout in every version, or the check
// cannot be made. Version 1 was the gob format, which predates the
// handshake.
const wireVersion = 2

// maxFrameBytes caps a single frame's payload (64 MiB) so a corrupted length
// prefix cannot make a reader allocate unboundedly.
const maxFrameBytes = 64 << 20

const headerLen = 4 + 1 + 4*8

type frameKind uint8

const (
	// frameHello is the first frame on a dialled connection: it claims a
	// rank. Arguments: Rank, Version.
	frameHello frameKind = iota + 1
	// frameStart is the hub's rendezvous release once every rank has
	// joined. Arguments: Rank, Size.
	frameStart
	// frameData carries one cluster.Message between ranks.
	frameData
	// frameBye announces a graceful endpoint shutdown. No arguments.
	frameBye
	// frameDown is broadcast by the hub to surviving ranks when a peer's
	// connection drops without a bye (unannounced death). Argument: Rank,
	// the dead rank.
	frameDown
	// frameRefuse answers a hello whose wire version the hub does not speak,
	// in place of frameStart. Argument: Version, the hub's.
	frameRefuse
)

type frame struct {
	Kind frameKind

	// frameData envelope; Payload is the encoded message payload.
	From, To, Tag, Bytes int
	Payload              []byte

	// Control frame arguments.
	Rank, Size, Version int
}

// args lists a control frame's arguments in wire order.
func (f *frame) args() []int {
	switch f.Kind {
	case frameHello:
		return []int{f.Rank, f.Version}
	case frameStart:
		return []int{f.Rank, f.Size}
	case frameDown:
		return []int{f.Rank}
	case frameRefuse:
		return []int{f.Version}
	}
	return nil
}

// setArgs is args' inverse; it reports false for an unknown kind or a wrong
// argument count.
func (f *frame) setArgs(a []int) bool {
	switch {
	case f.Kind == frameHello && len(a) == 2:
		f.Rank, f.Version = a[0], a[1]
	case f.Kind == frameStart && len(a) == 2:
		f.Rank, f.Size = a[0], a[1]
	case f.Kind == frameDown && len(a) == 1:
		f.Rank = a[0]
	case f.Kind == frameRefuse && len(a) == 1:
		f.Version = a[0]
	case f.Kind != frameBye || len(a) != 0:
		return false
	}
	return true
}

// appendFrame appends f's header and payload to b.
func appendFrame(b []byte, f *frame) []byte {
	start := len(b)
	b = append(b, make([]byte, headerLen)...)
	if f.Kind == frameData {
		b = append(b, f.Payload...)
	} else {
		b = cluster.AppendPayload(b, f.args())
	}
	putHeader(b[start:], f.Kind, f.From, f.To, f.Tag, f.Bytes)
	return b
}

// appendDataFrame appends a data frame carrying m to rank to, encoding the
// payload straight into b. It panics on a payload type with no wire codec.
func appendDataFrame(b []byte, to int, m cluster.Message) []byte {
	start := len(b)
	b = append(b, make([]byte, headerLen)...)
	b = cluster.AppendPayload(b, m.Payload)
	putHeader(b[start:], frameData, m.From, to, m.Tag, m.Bytes)
	return b
}

// putHeader fills the header at the front of h, whose payload is the rest of
// h.
func putHeader(h []byte, kind frameKind, from, to, tag, bytes int) {
	n := len(h) - headerLen
	if n > maxFrameBytes {
		panic(fmt.Sprintf("tcp: frame of %d bytes exceeds limit", n))
	}
	binary.LittleEndian.PutUint32(h[0:], uint32(n))
	h[4] = byte(kind)
	for i, v := range [4]int{from, to, tag, bytes} {
		binary.LittleEndian.PutUint64(h[5+8*i:], uint64(v))
	}
}

func writeFrame(w io.Writer, f *frame) error {
	_, err := w.Write(appendFrame(nil, f))
	return err
}

// readRawFrame reads one whole frame, header and payload, into buf (grown
// as needed) and returns it.
func readRawFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], headerLen)[:headerLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > maxFrameBytes {
		return buf, fmt.Errorf("tcp: frame length %d exceeds limit", n)
	}
	buf = slices.Grow(buf, int(n))[:headerLen+int(n)]
	if _, err := io.ReadFull(r, buf[headerLen:]); err != nil {
		return buf, err
	}
	return buf, nil
}

// parseFrame decodes a frame read by readRawFrame. A data frame's payload is
// left encoded, aliasing raw; control frame arguments are decoded.
func parseFrame(raw []byte) (frame, error) {
	var env [4]int
	for i := range env {
		env[i] = int(int64(binary.LittleEndian.Uint64(raw[5+8*i:])))
	}
	f := frame{Kind: frameKind(raw[4]), From: env[0], To: env[1], Tag: env[2], Bytes: env[3]}
	if f.Kind == frameData {
		f.Payload = raw[headerLen:]
		return f, nil
	}
	v, err := cluster.DecodePayload(raw[headerLen:])
	args, ok := v.([]int)
	if err != nil || !ok || !f.setArgs(args) {
		return frame{}, fmt.Errorf("tcp: malformed frame of kind %d", f.Kind)
	}
	return f, nil
}

// readFrame reads and parses one frame into a fresh buffer.
func readFrame(r io.Reader) (frame, error) {
	raw, err := readRawFrame(r, nil)
	if err != nil {
		return frame{}, err
	}
	return parseFrame(raw)
}
