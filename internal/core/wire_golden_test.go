package core_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedWireMessages returns one deterministic instance per protocol message
// type. Submodels are the test's WireSub — core defines only the interface;
// the concrete carriers pin their own formats (binauto's golden tests).
func fixedWireMessages() []struct {
	file string
	msg  any
} {
	sub := &WireSub{Id: 3, Sum: 7.5, Count: 4, Visits: []int{0, 2}}
	return []struct {
		file string
		msg  any
	}{
		{"token.golden.hex", &core.Token{SM: sub, ID: 3, Step: 2, Version: 1, Route: []int{0, 2, 1, 0}, Train: 3, Incarnation: 1}},
		{"wstart.golden.hex", core.WStartMsg{Iter: 4, Train: 6, Shuffle: true, M: 8}},
		// Version -1 is just a negative int here, pinning the sign encoding.
		{"wack.golden.hex", core.WAckMsg{Entries: []core.AckEntry{{ID: 0, Version: 2}, {ID: 3, Version: -1}}, Hops: 9, Bytes: 1024}},
		{"zdone.golden.hex", core.ZDoneMsg{Changed: 17, EQ: 1234.5, EBA: 98.75}},
		{"fix.golden.hex", core.FixMsg{ID: 6, SM: sub}},
		{"rescue_reply.golden.hex", core.RescueReply{SM: sub, Version: 4, OK: true}},
		{"rescue_miss.golden.hex", core.RescueReply{}},
		{"dead_ranks.golden.hex", core.DeadRanksMsg{Dead: []int{1, 3}}},
		{"probe_reply.golden.hex", core.ProbeReply{Entries: []core.TraceEntry{
			{ID: 2, Step: 4, To: 1, Version: 3},
			{ID: 5, Step: 7, To: 3, Version: 6},
		}}},
	}
}

// TestProtocolWireGolden pins every protocol message's wire payload (kind and
// body) byte for byte: encoding the fixed message must reproduce the
// committed bytes, and decoding them must give the message back. -update
// re-captures the encoding; flag any regeneration in the PR, because old
// workers cannot talk to new coordinators across a format change.
func TestProtocolWireGolden(t *testing.T) {
	for _, c := range fixedWireMessages() {
		raw := cluster.AppendPayload(nil, c.msg)
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.WriteFile(path, []byte(hex.EncodeToString(raw)+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
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
			t.Fatalf("%s: encoding drifted from the committed bytes:\ngot  %x\nwant %x", c.file, raw, committed)
		}
		back, err := cluster.DecodePayload(committed)
		if err != nil {
			t.Fatalf("%s: committed wire bytes do not decode: %v", c.file, err)
		}
		if !reflect.DeepEqual(back, c.msg) {
			t.Fatalf("%s: committed wire bytes decode to different state:\ngot  %#v\nwant %#v", c.file, back, c.msg)
		}
	}
}

// TestProtocolDecodeRejectsMissingSubmodel: a token or repair must carry a
// submodel; only a rescue reply may come back empty-handed.
func TestProtocolDecodeRejectsMissingSubmodel(t *testing.T) {
	for _, msg := range []any{&core.Token{Route: []int{0}}, core.FixMsg{ID: 1}} {
		if _, err := cluster.DecodePayload(cluster.AppendPayload(nil, msg)); err == nil {
			t.Errorf("%T without a submodel decoded", msg)
		}
	}
}
