package binauto

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
	"repro/internal/dataset"
	"repro/internal/sgd"
	"repro/internal/svm"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := dataset.GISTLike(120, 6, 4, 21)
	m, _, _ := RunMAC(ds, MACConfig{L: 5, Mu0: 1e-3, Iters: 3, SVMEpochs: 2, Seed: 21})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.L() != m.L() || back.D() != m.D() {
		t.Fatal("shape lost")
	}
	// The loaded model must produce identical codes and reconstructions.
	a, b := m.Encode(ds), back.Encode(ds)
	if !a.Equal(b) {
		t.Fatal("codes differ after round trip")
	}
	if m.EBA(ds) != back.EBA(ds) {
		t.Fatal("EBA differs after round trip")
	}
}

// checkGolden compares got against the named golden file, rewriting it under
// -update. Golden files pin the wire/disk formats: an accidental change to
// either fails here instead of silently breaking cross-version clusters or
// saved models.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file (%d vs %d bytes).\nIf the change is intentional, regenerate with -update and flag it in the PR: old workers cannot talk to new coordinators across a format change.", name, len(got), len(want))
	}
}

// fixedModel builds a deterministic 2-bit, 3-dimensional model by hand.
func fixedModel() *Model {
	m := &Model{Dec: NewDecoder(2, 3)}
	for b := 0; b < 2; b++ {
		lin := svm.NewLinear(3, 1e-5)
		for j := range lin.W {
			lin.W[j] = float64(b+1) * (0.25 + float64(j)/8)
		}
		lin.B = -0.5 * float64(b)
		m.Enc = append(m.Enc, lin)
	}
	for l := 0; l < 2; l++ {
		for d := 0; d < 3; d++ {
			m.Dec.W.Set(l, d, float64(l)-float64(d)/4)
		}
	}
	m.Dec.C = []float64{0.125, -0.25, 0.5}
	return m
}

func TestModelJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedModel().Save(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "model.golden.json", buf.Bytes())
}

// fixedEncoderSub/fixedDecoderSub are deterministic circulating submodels
// with non-trivial optimiser state (schedule mid-decay, auto-tune armed).
func fixedEncoderSub() *encoderSub {
	lin := svm.NewLinear(3, 1e-5)
	lin.W = []float64{0.5, -1.25, 2}
	lin.B = 0.75
	lin.Sched = sgd.NewSchedule(0.02, 1e-5)
	lin.Sched.SetSteps(137)
	return &encoderSub{id: 1, bit: 1, svm: lin, tuned: true}
}

func fixedDecoderSub() *decoderSub {
	d := newDecoderSub(3, 2, []int{0, 2}, 1e-4)
	for i := range d.w.Data {
		d.w.Data[i] = float64(i) - 1.5
	}
	d.c = []float64{0.25, -0.75}
	d.sched = sgd.NewSchedule(0.005, 1e-4)
	d.sched.SetSteps(42)
	d.tuned = true
	return d
}

// roundTrip sends sm through the cluster wire codec as the TCP transport
// does: kind and body out, registry-dispatched decode back.
func roundTrip(t *testing.T, sm core.Submodel) core.Submodel {
	t.Helper()
	back, err := cluster.DecodePayload(cluster.AppendPayload(nil, sm))
	if err != nil {
		t.Fatalf("%T: decode: %v", sm, err)
	}
	return back.(core.Submodel)
}

func TestSubmodelWireRoundTrip(t *testing.T) {
	for _, orig := range []core.Submodel{fixedEncoderSub(), fixedDecoderSub()} {
		if back := roundTrip(t, orig); !reflect.DeepEqual(orig, back) {
			t.Fatalf("%T: round trip lost state:\norig %#v\nback %#v", orig, orig, back)
		}
	}
}

func TestSubmodelWireCarriesOptimiserState(t *testing.T) {
	e := roundTrip(t, fixedEncoderSub()).(*encoderSub)
	if !e.tuned {
		t.Fatal("auto-tune flag lost: the submodel would re-tune on the next machine")
	}
	if got := e.svm.Sched.Steps(); got != 137 {
		t.Fatalf("schedule position lost: %v steps, want 137 — learning-rate decay would restart", got)
	}
}

// TestSubmodelWireGolden pins each submodel's wire payload (kind and body)
// byte for byte: encoding the fixed value must reproduce the committed
// bytes, and decoding them must give the value back. -update re-captures
// the encoding; flag any regeneration in the PR, because old workers cannot
// talk to new coordinators across a format change.
func TestSubmodelWireGolden(t *testing.T) {
	cases := []struct {
		file string
		want core.Submodel
	}{
		{"encoder_sub.golden.hex", fixedEncoderSub()},
		{"decoder_sub.golden.hex", fixedDecoderSub()},
	}
	for _, c := range cases {
		raw := cluster.AppendPayload(nil, c.want)
		checkGolden(t, c.file, []byte(hex.EncodeToString(raw)+"\n"))
		got, err := cluster.DecodePayload(raw)
		if err != nil {
			t.Fatalf("%s: committed wire bytes do not decode: %v", c.file, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: committed wire bytes decode to different state:\ngot  %#v\nwant %#v", c.file, got, c.want)
		}
	}
}

func TestSubmodelDecodeRejectsMalformed(t *testing.T) {
	badDec := fixedDecoderSub()
	badDec.w.Data = badDec.w.Data[:1] // 1 weight for L=3 rows × 2 dims
	badEnc := fixedEncoderSub()
	badEnc.svm.Sched = &sgd.Schedule{} // eta0 0
	for _, bad := range []core.Submodel{badDec, badEnc} {
		if _, err := cluster.DecodePayload(cluster.AppendPayload(nil, bad)); err == nil {
			t.Fatalf("malformed %T decoded", bad)
		}
	}
	raw := cluster.AppendPayload(nil, fixedEncoderSub())
	for _, cut := range [][]byte{raw[:len(raw)-1], append(raw[:len(raw):len(raw)], 0)} {
		if _, err := cluster.DecodePayload(cut); err == nil {
			t.Fatalf("%d of %d bytes decoded", len(cut), len(raw))
		}
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	cases := []string{
		``,
		`{"l":0,"d":3}`,
		`{"l":2,"d":3,"encoder":[{"w":[1,2,3],"b":0}],"decoder":{"w":[[1,2,3],[4,5,6]],"c":[0,0,0]}}`, // one encoder for L=2
		`{"l":1,"d":3,"encoder":[{"w":[1,2],"b":0}],"decoder":{"w":[[1,2,3]],"c":[0,0,0]}}`,           // encoder width mismatch
		`{"l":1,"d":3,"encoder":[{"w":[1,2,3],"b":0}],"decoder":{"w":[[1,2]],"c":[0,0,0]}}`,           // decoder row width mismatch
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}
