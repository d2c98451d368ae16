package core

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// wireBox mirrors the TCP transport's payloadBox: protocol messages cross the
// fabric as gob interface values, so the golden bytes must exercise the same
// registration machinery the transport relies on.
type wireBox struct{ V any }

// fixedWireMessages returns one deterministic instance per gob-registered
// protocol type. Submodel fields stay nil — core defines only the interface;
// the concrete carriers pin their own formats (binauto, macnet golden tests).
func fixedWireMessages() []struct {
	file string
	msg  any
} {
	return []struct {
		file string
		msg  any
	}{
		{"token.golden.hex", &Token{ID: 3, Step: 2, Version: 1, Route: []int{0, 2, 1, 0}, Train: 3}},
		// Recorded when WStartMsg still carried three failure-injection
		// fields (one of them set, to -1). Not regenerated: a worker without
		// them must keep decoding a coordinator that sends them.
		{"wstart.golden.hex", WStartMsg{Iter: 4, Train: 6, Within: 2, Shuffle: true, Replicas: true, M: 8}},
		{"wack.golden.hex", WAckMsg{Entries: []AckEntry{{ID: 0, Version: 2}, {ID: 3, Version: -1}}, Hops: 9, Bytes: 1024}},
		{"zdone.golden.hex", ZDoneMsg{Changed: 17}},
		{"fix.golden.hex", FixMsg{ID: 6}},
		{"rescue_reply.golden.hex", RescueReply{Version: 4, OK: true}},
		{"dead_ranks.golden.hex", DeadRanksMsg{Dead: []int{1, 3}}},
		{"probe_reply.golden.hex", ProbeReply{Entries: []TraceEntry{
			{ID: 2, Step: 4, To: 1, Version: 3},
			{ID: 5, Step: 7, To: 3, Version: 6},
		}}},
	}
}

// TestProtocolWireGolden decodes byte streams committed when each protocol
// message's wire format was defined. As in binauto/serialize_test.go, the
// check is decodability plus state equality — a worker built today must still
// understand frames from the committed format. -update re-captures the
// current encoding; flag any regeneration in the PR, because old workers
// cannot talk to new coordinators across a format change.
func TestProtocolWireGolden(t *testing.T) {
	for _, c := range fixedWireMessages() {
		path := filepath.Join("testdata", c.file)
		if *update {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&wireBox{V: c.msg}); err != nil {
				t.Fatalf("%s: encode: %v", c.file, err)
			}
			if err := os.WriteFile(path, []byte(hex.EncodeToString(buf.Bytes())+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		hexBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run go test -run %s -update): %v", t.Name(), err)
		}
		raw, err := hex.DecodeString(strings.TrimSpace(string(hexBytes)))
		if err != nil {
			t.Fatal(err)
		}
		var back wireBox
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&back); err != nil {
			t.Fatalf("%s: committed wire bytes no longer decode — the format drifted incompatibly: %v", c.file, err)
		}
		if !reflect.DeepEqual(back.V, c.msg) {
			t.Fatalf("%s: committed wire bytes decode to different state:\ngot  %#v\nwant %#v", c.file, back.V, c.msg)
		}
	}
}
