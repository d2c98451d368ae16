package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// quick shrinks a workload to smoke-test size: same code path, tiny inputs,
// one timed job or about a hundred requests.
func quick(w workload) workload {
	if w.train != nil {
		sz := *w.train
		sz.N, sz.D, sz.L, sz.Iters, sz.MinJobs = min(sz.N, 600), 16, 6, 3, 1
		sz.Epochs, sz.MinQuality = min(sz.Epochs, 2), 0.3
		w.train, w.frozen = &sz, nil
		return w
	}
	sz := *w.serve
	sz.N, sz.OpenQPS = 5000, 400
	if sz.AddsPerS > 0 {
		sz.AddsPerS, sz.AddBatch, sz.AddCodes = 50, 16, 16*40
	}
	w.serve = &sz
	return w
}

// TestQuickSmoke runs all five workloads untraced and traced at smoke size and
// asserts that every promised metric is emitted with its unit and that the
// correctness checks ran and passed.
func TestQuickSmoke(t *testing.T) {
	for _, full := range workloads {
		w := quick(full)
		for trace := 0; trace <= 1; trace++ {
			dir := t.TempDir()
			rep, err := runWorkload(&w, 1, 0.4, trace, dir)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			want := endToEnd
			if trace == 1 {
				want = perLayer
			}
			for _, d := range want {
				if m, ok := rep.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s [%s] missing (got %+v)", w.Name, trace, d.Name, d.Unit, m)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d checks=%v",
					w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Checks)
			}
			if len(rep.Checks) == 0 {
				t.Errorf("%s trace=%d: no correctness check executed", w.Name, trace)
			}
			if trace == 1 {
				data, err := os.ReadFile(filepath.Join(dir, "trace_"+w.Name+".json"))
				var spans []span
				if err != nil || json.Unmarshal(data, &spans) != nil || len(spans) == 0 {
					t.Errorf("%s: span file unreadable or empty (%v)", w.Name, err)
				}
			}
		}
	}
}

// TestTracedEndpointIsTransparent trains the same small P=2 job untraced and
// through the tracing endpoint and problem wrappers, on both fabrics: the
// models must agree bit for bit, and the wrappers must have seen every layer.
func TestTracedEndpointIsTransparent(t *testing.T) {
	sz := *quick(workloads[0]).train
	td := setupTrain(sz, 7)
	for _, transport := range []string{"inproc", "tcp"} {
		plain, err := runJob(td, sz, 7, trainRanks, transport, false, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		traced, err := runJob(td, sz, 7, trainRanks, transport, false, tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !modelsIdentical(plain.model, traced.model) {
			t.Errorf("%s: traced model differs from untraced", transport)
		}
		seen := map[string]int{}
		spans := tr.spans()
		for _, s := range spans {
			seen[s.Name]++
			if s.End < s.Start {
				t.Errorf("%s: span %s ends before it starts", transport, s.Name)
			}
			if s.Parent >= 0 && (spans[s.Parent].Start > s.Start || spans[s.Parent].End < s.End) {
				t.Errorf("%s: span %s escapes its parent %s", transport, s.Name, spans[s.Parent].Name)
			}
		}
		if seen["iterate"] != sz.Iters || seen["wphase"] != trainRanks*sz.Iters || seen["zstep"] != trainRanks*sz.Iters {
			t.Errorf("%s: iterate/wphase/zstep spans = %d/%d/%d, want %d/%d/%d", transport,
				seen["iterate"], seen["wphase"], seen["zstep"], sz.Iters, trainRanks*sz.Iters, trainRanks*sz.Iters)
		}
		for _, name := range []string{"deliver:Token", "next:Token", "next:WStartMsg", "deliver:WAckMsg", "deliver:ZDoneMsg"} {
			if seen[name] == 0 {
				t.Errorf("%s: no %s span", transport, name)
			}
		}
	}
}

func TestSelfSeconds(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 10e9},
		{ID: 1, Parent: 0, Start: 1e9, End: 4e9},
		{ID: 2, Parent: 0, Start: 5e9, End: 6e9},
		{ID: 3, Parent: 1, Start: 2e9, End: 3e9},
	}
	want := []float64{6, 2, 1, 1}
	for i, got := range selfSeconds(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %g s, want %g", i, got, want[i])
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the metric and
// workload tables in main.go from drifting apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json gates a subset of the program's workloads (README.md says
	// which and why); every one it names must exist.
	if len(spec.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json names %d workloads", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
