package cluster_test

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	_ "repro/internal/binauto" // register the submodel codecs the fuzzer decodes
	"repro/internal/cluster"
	"repro/internal/core"
	_ "repro/internal/macnet"
)

func TestBuiltinPayloadRoundTrip(t *testing.T) {
	for _, v := range []any{nil, 0, math.MinInt, math.MaxInt, "", "héllo", []int{-1, 0, 1},
		[]float64{math.Inf(-1), -0.0, math.SmallestNonzeroFloat64}} {
		raw := cluster.AppendPayload(nil, v)
		back, err := cluster.DecodePayload(raw)
		if err != nil {
			t.Fatalf("%#v: %v", v, err)
		}
		if !reflect.DeepEqual(back, v) {
			t.Fatalf("%#v decoded as %#v", v, back)
		}
		if again := cluster.AppendPayload(nil, back); !bytes.Equal(again, raw) {
			t.Fatalf("%#v re-encodes to %x, was %x", v, again, raw)
		}
	}
}

// TestDecodePayloadRejectsMalformed: short, trailing and inconsistent bytes
// are errors. A lying count must fail before anything is allocated for it —
// 32 GB of ints here.
func TestDecodePayloadRejectsMalformed(t *testing.T) {
	ints := cluster.AppendPayload(nil, []int{1, 2, 3})
	huge := append([]byte(nil), ints[:2]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff) // 4G elements, no bytes behind them
	badBool := cluster.AppendPayload(nil, core.WStartMsg{Shuffle: true})
	badBool[2+3*8] = 2
	cases := map[string][]byte{
		"empty":        {},
		"short kind":   {0},
		"truncated":    ints[:len(ints)-1],
		"trailing":     append(ints[:len(ints):len(ints)], 0),
		"unknown kind": {0xff, 0xff},
		"lying count":  huge,
		"bool byte 2":  badBool,
	}
	for name, raw := range cases {
		if _, err := cluster.DecodePayload(raw); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

func TestAppendPayloadPanicsWithoutCodec(t *testing.T) {
	defer func() {
		if r := recover(); r != "no wire codec for float64" {
			t.Fatalf("recovered %v, want a no-wire-codec panic", r)
		}
	}()
	cluster.AppendPayload(nil, 1.5)
}

// FuzzDecodePayload holds the decoder — the builtins and every registered
// protocol and submodel codec — to two properties on arbitrary bytes: it
// never panics, and any input it accepts re-encodes to exactly its own
// bytes (the encoding is canonical). Seeds are the committed wire goldens
// plus protocol messages carrying the golden submodels, each also cut short
// and extended by a byte.
func FuzzDecodePayload(f *testing.F) {
	var seeds [][]byte
	var subs []core.Submodel
	for _, dir := range []string{"../core", "../binauto", "../macnet"} {
		paths, err := filepath.Glob(filepath.Join(dir, "testdata", "*.golden.hex"))
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			text, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			raw, err := hex.DecodeString(strings.TrimSpace(string(text)))
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, raw)
			if v, err := cluster.DecodePayload(raw); err == nil {
				if sm, ok := v.(core.Submodel); ok {
					subs = append(subs, sm)
				}
			}
		}
	}
	if len(subs) == 0 {
		f.Fatal("no submodel golden decoded; the seed corpus would miss nested payloads")
	}
	for _, sm := range subs {
		for _, v := range []any{
			&core.Token{SM: sm, ID: sm.ID(), Step: 1, Version: 2, Route: []int{0, 1, 0}, Train: 2},
			core.FixMsg{ID: sm.ID(), SM: sm},
			core.RescueReply{SM: sm, Version: 3, OK: true},
		} {
			seeds = append(seeds, cluster.AppendPayload(nil, v))
		}
	}
	for _, raw := range seeds {
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(append(raw[:len(raw):len(raw)], 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := cluster.DecodePayload(data)
		if err != nil {
			return
		}
		if again := cluster.AppendPayload(nil, v); !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently:\nin  %x\nout %x", data, again)
		}
	})
}
