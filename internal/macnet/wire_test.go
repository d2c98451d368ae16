package macnet

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
)

func fixedUnitSub() *unitSub {
	return &unitSub{
		id:  4,
		ref: UnitRef{Layer: 1, Unit: 2},
		w:   []float64{0.5, -1, 0.25, 2},
		k:   2,
		eta: 0.3,
	}
}

func TestUnitSubWireRoundTrip(t *testing.T) {
	orig := fixedUnitSub()
	back, err := cluster.DecodePayload(cluster.AppendPayload(nil, orig))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, orig) {
		t.Fatalf("unit submodel round trip lost state:\norig %#v\nback %#v", orig, back)
	}
}

func TestUnitSubDecodeRejectsEmpty(t *testing.T) {
	if _, err := cluster.DecodePayload(cluster.AppendPayload(nil, &unitSub{id: 1})); err == nil {
		t.Fatal("weightless unit must not decode")
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// TestUnitSubWireGolden pins the unit submodel's wire payload byte for byte
// (the binauto/serialize_test.go convention): encoding the fixed value must
// reproduce the committed bytes and decoding them must give it back. -update
// re-captures the encoding; flag any regeneration in the PR.
func TestUnitSubWireGolden(t *testing.T) {
	want := fixedUnitSub()
	raw := cluster.AppendPayload(nil, want)
	path := filepath.Join("testdata", "unit_sub.golden.hex")
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
		t.Fatalf("unit submodel encoding drifted from the committed bytes:\ngot  %x\nwant %x", raw, committed)
	}
	got, err := cluster.DecodePayload(committed)
	if err != nil {
		t.Fatalf("committed wire bytes do not decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("committed wire bytes decode to different state:\ngot  %#v\nwant %#v", got, want)
	}
}
