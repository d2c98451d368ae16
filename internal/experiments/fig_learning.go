package experiments

import (
	"fmt"

	"repro/internal/binauto"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/retrieval"
)

// learnWorkload is a scaled stand-in for one of the paper's image-retrieval
// benchmarks (internal/dataset documents the substitution).
type learnWorkload struct {
	name     string
	n, d, l  int
	clusters int
	queries  int
	kTrue    int // K true Euclidean neighbours
	kRet     int // k retrieved Hamming neighbours
	mu0      float64
	muFactor float64
	iters    int
}

func sift10kLike(quick bool) learnWorkload {
	w := learnWorkload{
		name: "SIFT-10K analogue", n: 2000, d: 32, l: 8, clusters: 10,
		queries: 50, kTrue: 50, kRet: 50, mu0: 1e-4, muFactor: 2, iters: 10,
	}
	if quick {
		w.n, w.iters, w.queries = 600, 4, 20
	}
	return w
}

func cifarLike(quick bool) learnWorkload {
	w := learnWorkload{
		name: "CIFAR analogue", n: 4000, d: 48, l: 8, clusters: 10,
		queries: 50, kTrue: 100, kRet: 50, mu0: 5e-3, muFactor: 1.5, iters: 10,
	}
	if quick {
		w.n, w.iters, w.queries = 800, 4, 20
	}
	return w
}

// curveRow is one learning-curve sample (one MAC iteration).
type curveRow struct {
	iter      int
	eq, eba   float64
	precision float64
}

// runCurve trains a ParMAC BA with the given parallelism settings and
// records the per-iteration learning curve, the content of Figs. 7–9.
func runCurve(w learnWorkload, p, epochs int, shuffle bool, seed int64) []curveRow {
	ds, queries := dataset.WithQueries(w.n, w.queries, w.d, w.clusters, seed, true)
	truth := retrieval.GroundTruth(ds, queries, w.kTrue)

	shards := dataset.ShuffledShardIndices(w.n, p, nil, seed+1)
	prob := binauto.NewParMACProblem(ds, shards, binauto.ParMACConfig{
		L: w.l, Mu0: w.mu0, MuFactor: w.muFactor, SVMLambda: 1e-4, Seed: seed,
	})
	eng := core.New(prob, core.Config{P: p, Epochs: epochs, Shuffle: shuffle, Seed: seed})
	defer eng.Shutdown()

	val := &binauto.Validation{Base: ds, Queries: queries, Truth: truth, K: w.kRet}
	rows := make([]curveRow, 0, w.iters)
	for it := 0; it < w.iters; it++ {
		eng.Iterate()
		eq, eba := prob.Stats()
		rows = append(rows, curveRow{
			iter: it, eq: eq, eba: eba,
			precision: val.Score(prob.AssembleModel()),
		})
	}
	return rows
}

func curveTable(id, title string, series map[string][]curveRow, order []string) *Table {
	t := &Table{ID: id, Title: title,
		Columns: []string{"config", "iter", "E_Q", "E_BA", "precision"}}
	for _, name := range order {
		for _, r := range series[name] {
			t.AddRow(name, d(r.iter), f1(r.eq), f1(r.eba), f3(r.precision))
		}
	}
	return t
}

func lastRow(rows []curveRow) curveRow { return rows[len(rows)-1] }

// Fig. 7: SIFT-10K learning curves — the effect of the number of epochs e in
// the W step at P=1, and of the number of machines P at fixed e.
func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "SIFT-10K learning curves: epochs and machines",
		Run: func(cfg RunConfig) []*Table {
			w := sift10kLike(cfg.Quick)
			epochs := []int{1, 2, 4, 8}
			machines := []int{1, 4, 8}
			if cfg.Quick {
				epochs = []int{1, 8}
				machines = []int{1, 4}
			}

			series := map[string][]curveRow{}
			var order []string
			for _, e := range epochs {
				name := fmt.Sprintf("P=1 e=%d", e)
				series[name] = runCurve(w, 1, e, false, cfg.Seed)
				order = append(order, name)
			}
			t1 := curveTable("fig7", w.name+": varying epochs at P=1", series, order)
			t1.Notes = append(t1.Notes, "few epochs cause only a small degradation (paper §8.2)")

			series2 := map[string][]curveRow{}
			var order2 []string
			for _, e := range []int{1, 8} {
				for _, p := range machines {
					name := fmt.Sprintf("P=%d e=%d", p, e)
					series2[name] = runCurve(w, p, e, false, cfg.Seed)
					order2 = append(order2, name)
				}
			}
			t2 := curveTable("fig7", w.name+": varying machines at fixed epochs", series2, order2)
			t2.Notes = append(t2.Notes, "curves for different P nearly coincide (paper Fig. 7 right)")
			return []*Table{t1, t2}
		},
	})
}

// Fig. 8: CIFAR learning curves, same protocol at CIFAR-like shape.
func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "CIFAR learning curves: epochs and machines",
		Run: func(cfg RunConfig) []*Table {
			w := cifarLike(cfg.Quick)
			epochs := []int{1, 2, 4, 8}
			machines := []int{1, 8, 16}
			if cfg.Quick {
				epochs = []int{2, 8}
				machines = []int{1, 8}
			}
			series := map[string][]curveRow{}
			var order []string
			for _, e := range epochs {
				name := fmt.Sprintf("P=1 e=%d", e)
				series[name] = runCurve(w, 1, e, false, cfg.Seed)
				order = append(order, name)
			}
			t1 := curveTable("fig8", w.name+": varying epochs at P=1", series, order)

			series2 := map[string][]curveRow{}
			var order2 []string
			for _, e := range []int{2, 8} {
				for _, p := range machines {
					name := fmt.Sprintf("P=%d e=%d", p, e)
					series2[name] = runCurve(w, p, e, false, cfg.Seed)
					order2 = append(order2, name)
				}
			}
			t2 := curveTable("fig8", w.name+": varying machines at fixed epochs", series2, order2)
			return []*Table{t1, t2}
		},
	})
}

// Fig. 9: the effect of minibatch/ring shuffling in the W step (§4.3): with
// shuffling on, E_Q is generally lower at no extra cost.
func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "effect of shuffling in the W step",
		Run: func(cfg RunConfig) []*Table {
			w := cifarLike(cfg.Quick)
			configs := []struct {
				p, e int
			}{{1, 2}, {8, 2}, {8, 8}}
			if cfg.Quick {
				configs = configs[:2]
			}
			seeds := []int64{cfg.Seed, cfg.Seed + 100, cfg.Seed + 200}
			if cfg.Quick {
				seeds = seeds[:1]
			}
			t := &Table{ID: "fig9",
				Title:   w.name + ": shuffled vs unshuffled W step (final values, mean over seeds)",
				Columns: []string{"config", "E_Q plain", "E_Q shuffled", "E_BA plain", "E_BA shuffled", "prec plain", "prec shuffled"}}
			for _, c := range configs {
				var plain, shuf curveRow
				for _, seed := range seeds {
					p := lastRow(runCurve(w, c.p, c.e, false, seed))
					s := lastRow(runCurve(w, c.p, c.e, true, seed))
					plain.eq += p.eq / float64(len(seeds))
					plain.eba += p.eba / float64(len(seeds))
					plain.precision += p.precision / float64(len(seeds))
					shuf.eq += s.eq / float64(len(seeds))
					shuf.eba += s.eba / float64(len(seeds))
					shuf.precision += s.precision / float64(len(seeds))
				}
				t.AddRow(fmt.Sprintf("P=%d e=%d", c.p, c.e),
					f1(plain.eq), f1(shuf.eq), f1(plain.eba), f1(shuf.eba),
					f3(plain.precision), f3(shuf.precision))
			}
			t.Notes = append(t.Notes, "shuffling generally reduces E_Q with no increase in runtime (paper §8.2)")
			return []*Table{t}
		},
	})
}

// Fig. 3: one epoch of the synchronous W step with P=4 machines and M=12
// submodels: which submodels each machine trains at each clock tick.
func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "synchronous W-step schedule (P=4, M=12)",
		Run: func(cfg RunConfig) []*Table {
			const P, M = 4, 12
			t := &Table{ID: "fig3",
				Title:   "submodels trained per machine per tick (one epoch + final copy round)",
				Columns: []string{"tick", "machine 1", "machine 2", "machine 3", "machine 4"}}
			block := M / P
			for tick := 1; tick <= P+1; tick++ {
				row := []string{d(tick)}
				for m := 0; m < P; m++ {
					// Block b starts at machine b and moves one step per tick.
					b := ((m-(tick-1))%P + P) % P
					lo, hi := b*block+1, b*block+block
					if tick == P+1 {
						row = append(row, fmt.Sprintf("holds %d-%d (done)", lo, hi))
					} else {
						row = append(row, fmt.Sprintf("train %d-%d", lo, hi))
					}
				}
				t.AddRow(row...)
			}
			t.Notes = append(t.Notes, "after P ticks every submodel has been updated on the whole dataset (paper Fig. 3)")
			return []*Table{t}
		},
	})
}
