package experiments

import (
	"fmt"

	"repro/internal/speedup"
)

// Fig. 10: strong-scaling speedups for the three workloads, measured on the
// simulated cluster (top row of the figure) and predicted by the closed-form
// model (bottom row). The parameters are the paper's §8.3 fits: M = 2L
// effective submodels, t_r^W = 1, t_c^W = 10⁴, t_r^Z = 200 (CIFAR) / 40
// (SIFT). The experimental curves add 5% service-time noise, standing in for
// the real machines' runtime variation.
func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "strong-scaling speedup: simulated experiment vs theory",
		Run:   runFig10,
	})
}

type fig10Workload struct {
	name string
	n    int
	m    int
	tZr  float64
	ps   []int
}

func fig10Workloads(quick bool) []fig10Workload {
	ws := []fig10Workload{
		{"CIFAR (N=50K, M=32)", 50000, 32, 200, []int{1, 2, 4, 8, 16, 32, 64, 96, 128}},
		{"SIFT-1M (N=1M, M=32)", 1000000, 32, 40, []int{1, 2, 4, 8, 16, 32, 64, 96, 128}},
		{"SIFT-1B (N=100M, M=128)", 100000000, 128, 40, []int{1, 32, 128, 256, 512, 768, 1024}},
	}
	if quick {
		for i := range ws {
			ws[i].ps = []int{1, 8, 32, 128}
		}
		ws[1].n = 200000
	}
	return ws
}

func runFig10(cfg RunConfig) []*Table {
	var out []*Table
	epochs := []int{1, 2, 4, 8}
	if cfg.Quick {
		epochs = []int{1, 8}
	}
	for _, w := range fig10Workloads(cfg.Quick) {
		for _, view := range []string{"experiment (simulated cluster)", "theory (closed form)"} {
			t := &Table{
				ID:      "fig10",
				Title:   fmt.Sprintf("%s — %s", w.name, view),
				Columns: append([]string{"e \\ P"}, cols(w.ps)...),
			}
			for _, e := range epochs {
				row := []string{d(e)}
				for _, p := range w.ps {
					th := speedup.Params{N: w.n, M: w.m, E: e, TWr: 1, TWc: 1e4, TZr: w.tZr}
					s := th.Speedup(float64(p))
					if view[0] == 'e' {
						c := speedup.Cluster{P: p, Noise: 0.05, Seed: cfg.Seed + int64(p) + int64(e)*1000}
						s = th.T(1) / th.Simulate(c).T
					}
					row = append(row, f1(s))
				}
				t.AddRow(row...)
			}
			t.Notes = append(t.Notes,
				"near-perfect for P <= M, flattening with more epochs; theory matches the simulated schedule (paper Fig. 10)")
			out = append(out, t)
		}
	}
	return out
}

// Fig. 13: communication vs computation time as P=16 processors are spread
// over 1..16 nodes. Inter-node hops cost t_c^W = 500, intra-node hops 50
// (the paper's shared-memory system was measured 3–4× faster end to end).
func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "comm/comp split vs nodes x processors-per-node",
		Run: func(cfg RunConfig) []*Table {
			t := &Table{
				ID:      "fig13",
				Title:   "P=16 split across nodes (RBF model workload, one iteration)",
				Columns: []string{"config", "comm time", "comp time", "total T"},
			}
			n := 20000
			if cfg.Quick {
				n = 5000
			}
			for _, procs := range []int{16, 8, 4, 2, 1} {
				nodes := 16 / procs
				model := speedup.Params{N: n, M: 128, E: 2, TWr: 1, TWc: 500, TZr: 5}
				r := model.Simulate(speedup.Cluster{P: 16, ProcsPerNode: procs, IntraTWc: 50, Seed: cfg.Seed})
				t.AddRow(fmt.Sprintf("%dx%d", nodes, procs), g(r.CommTime), g(r.CompTime), g(r.T))
			}
			t.Notes = append(t.Notes,
				"computation constant, communication grows toward the pure-distributed 16x1 configuration (paper Fig. 13)",
				"comm/comp columns are totals across the 16 machines; total T is the makespan")
			return []*Table{t}
		},
	})
}

// Table 1: the paper lists the two physical systems' hardware. Our substitute
// prints the simulated systems' cost-model constants, which play the same
// role in every runtime experiment.
func init() {
	register(Experiment{
		ID:    "tab1",
		Title: "simulated system parameters (replaces hardware spec table)",
		Run: func(cfg RunConfig) []*Table {
			t := &Table{
				ID:      "tab1",
				Title:   "cost-model constants of the two simulated systems",
				Columns: []string{"parameter", "distributed (TSCC-like)", "shared-memory (UCM-like)"},
			}
			t.AddRow("tWr (W compute / submodel / point)", "1.0", "0.125")
			t.AddRow("tWc (W comm / submodel hop)", "10000", "1000")
			t.AddRow("tZr (Z compute / point / submodel)", "40", "5")
			t.AddRow("processors used", "128", "64")
			t.AddRow("per-iteration speed (fitted)", "1x", "~4.4x")
			t.Notes = append(t.Notes,
				"paper reports the shared-memory system 3-4x faster end to end (§8.1, §8.4); constants fitted to its measured hours",
				"original Table 1 lists Xeon E5-2670 vs E5-2699v3 hardware we do not have")
			return []*Table{t}
		},
	})
}
