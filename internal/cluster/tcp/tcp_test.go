package tcp

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

var update = flag.Bool("update", false, "rewrite golden files")

// ---------------------------------------------------------------------------
// frame codec
// ---------------------------------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	cases := []*frame{
		{Kind: frameHello, Rank: 3, Version: wireVersion},
		{Kind: frameStart, Rank: 3, Size: 8},
		{Kind: frameData, From: 1, To: 2, Tag: 7, Bytes: 24, Payload: cluster.AppendPayload(nil, []float64{1.5, -2, 0})},
		{Kind: frameData, From: 0, To: 1, Tag: math.MinInt, Payload: cluster.AppendPayload(nil, nil)},
		{Kind: frameBye},
		{Kind: frameRefuse, Version: 9},
	}
	var buf bytes.Buffer
	for _, f := range cases {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range cases {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("frame round trip: got %+v want %+v", got, want)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes after frames", buf.Len())
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, v := range []any{nil, 42, -1, "hello", "", []int{1, 2, 3}, []float64{0.5}} {
		raw := appendDataFrame(nil, 1, cluster.Message{From: 0, Tag: 3, Payload: v, Bytes: 8})
		f, err := readFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		back, err := cluster.DecodePayload(f.Payload)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if !reflect.DeepEqual(back, v) {
			t.Fatalf("payload %T round trip: got %v want %v", v, back, v)
		}
	}
}

// TestUnregisteredPayloadPanics pins Deliver's contract for a payload type
// with no wire codec: a panic naming the type, before anything is written.
func TestUnregisteredPayloadPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "no wire codec for bool") {
			t.Fatalf("recovered %v, want a no-wire-codec panic", r)
		}
	}()
	appendDataFrame(nil, 0, cluster.Message{Payload: true})
}

// checkFrameGolden pins a frame byte for byte: encoding want must reproduce
// the committed bytes and parsing them must give want back. -update
// re-captures the encoding.
func checkFrameGolden(t *testing.T, file string, want *frame) {
	t.Helper()
	raw := appendFrame(nil, want)
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(hex.EncodeToString(raw)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	hexBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run %s -update): %v", t.Name(), err)
	}
	committed, err := hex.DecodeString(strings.TrimSpace(string(hexBytes)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, committed) {
		t.Fatalf("%s: frame encoding drifted from the committed bytes:\ngot  %x\nwant %x", file, raw, committed)
	}
	got, err := readFrame(bytes.NewReader(committed))
	if err != nil {
		t.Fatalf("%s: committed frame does not parse: %v", file, err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("%s: committed frame parses to %+v, want %+v", file, got, want)
	}
}

// TestFrameGolden pins a data frame carrying a string payload; a frame's
// bytes are the wire contract between processes of different builds.
func TestFrameGolden(t *testing.T) {
	checkFrameGolden(t, "data_frame.golden.hex", &frame{Kind: frameData, From: 1, To: 2, Tag: 9, Bytes: 40,
		Payload: cluster.AppendPayload(nil, "token")})
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	raw := appendFrame(nil, &frame{Kind: frameBye})
	binary.LittleEndian.PutUint32(raw, math.MaxUint32)
	if _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("oversized frame length must be rejected")
	}
}

// TestReadFrameRejectsMalformed: truncated frames, unknown kinds and control
// frames with the wrong arguments are errors, never panics.
func TestReadFrameRejectsMalformed(t *testing.T) {
	hello := appendFrame(nil, &frame{Kind: frameHello, Rank: 1, Version: wireVersion})
	unknown := append([]byte(nil), hello...)
	unknown[4] = 0xee
	shortArgs := appendFrame(nil, &frame{Kind: frameDown, Rank: 1})
	shortArgs[4] = byte(frameStart) // a start frame needs two arguments
	for name, raw := range map[string][]byte{
		"truncated header":  hello[:headerLen-1],
		"truncated payload": hello[:len(hello)-1],
		"unknown kind":      unknown,
		"wrong arguments":   shortArgs,
	} {
		if _, err := readFrame(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}

// ---------------------------------------------------------------------------
// rendezvous & shutdown
// ---------------------------------------------------------------------------

func TestRendezvousRejectsBadRank(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if _, err := Dial(hub.Addr(), 7); err == nil {
		t.Fatal("out-of-range rank must be rejected at rendezvous")
	}
}

func TestRendezvousRejectsDuplicateRank(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	// Rank 0 joins (rendezvous incomplete, so Dial would block; drive the
	// hello by hand).
	first := make(chan error, 1)
	go func() {
		_, err := Dial(hub.Addr(), 0)
		first <- err
	}()
	time.Sleep(50 * time.Millisecond)
	dupDone := make(chan error, 1)
	go func() {
		_, err := Dial(hub.Addr(), 0)
		dupDone <- err
	}()
	select {
	case err := <-dupDone:
		if err == nil {
			t.Fatal("duplicate rank must be rejected")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate dial neither rejected nor timed out")
	}
	hub.Close() // unblocks the legitimate rank-0 dial
	<-first
}

func TestRendezvousRecoversFromEarlyDisconnect(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	// A process claims rank 0, then dies before the cluster assembles. The
	// hub must unclaim the rank or the cluster can never start.
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, &frame{Kind: frameHello, Rank: 0, Version: wireVersion}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the hub register the claim
	conn.Close()
	time.Sleep(100 * time.Millisecond) // let the hub notice the death

	// A restarted rank 0 plus rank 1 must now rendezvous successfully.
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			ep, err := Dial(hub.Addr(), r)
			if err == nil {
				defer ep.Close()
			}
			errs <- err
		}(r)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("rendezvous after early disconnect: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cluster wedged: dead rendezvous claim was never released")
		}
	}
}

// TestRendezvousRefusesWireVersionMismatch: a rank speaking another wire
// version is refused at rendezvous with an error naming both versions, and
// the rank it tried to claim stays free for a matching binary.
func TestRendezvousRefusesWireVersionMismatch(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	_, err = dial(hub.Addr(), 0, wireVersion-1)
	want := fmt.Sprintf("tcp: hub speaks wire v%d, this binary v%d", wireVersion, wireVersion-1)
	if err == nil || err.Error() != want {
		t.Fatalf("mismatched dial: err = %v, want %q", err, want)
	}
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			ep, err := Dial(hub.Addr(), r)
			if err == nil {
				defer ep.Close()
			}
			errs <- err
		}(r)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("rendezvous after a refused hello: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("refused hello left its rank claimed")
		}
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	fab, err := NewLoopbackFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	c0, c1 := fab.Comm(0), fab.Comm(1)
	done := make(chan cluster.Message, 1)
	go func() { done <- c1.Recv(1) }()
	c0.Send(1, 1, "last words", 10)
	m := <-done
	if m.Payload.(string) != "last words" {
		t.Fatalf("message lost: %+v", m)
	}
	// Rank 0 says bye; rank 1 must remain usable with rank 0 gone.
	c0.Close()
	c1.Send(1, 2, "self", 4) // self-route through the hub still works
	if m := c1.Recv(2); m.Payload.(string) != "self" {
		t.Fatalf("fabric unusable after a peer departed: %+v", m)
	}
}
