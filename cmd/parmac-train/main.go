// parmac-train trains a binary autoencoder with ParMAC on a synthetic
// benchmark dataset, reports the learning curve and retrieval precision, and
// can save/load the model as JSON.
//
// The ParMAC machines can run on either cluster transport:
//
//	parmac-train -n 10000 -d 64 -bits 16 -p 8 -iters 12 -out model.json
//	parmac-train -transport tcp -p 4 -iters 8      # P worker OS processes, auto-spawned
//	parmac-train -load model.json -n 10000 -d 64   # evaluate a saved model
//
// Manual multi-host-style launch (all on one host). Workers rebuild the
// identical sharded problem from the flags, so every worker must receive the
// same data/model flags (-p -n -d -bits -seed ...) as the coordinator —
// the worker aborts if -p disagrees with the cluster size:
//
//	parmac-train -coordinator -listen 127.0.0.1:9377 -p 2 -spawn=false &
//	parmac-train -worker -connect 127.0.0.1:9377 -rank 0 -p 2 &
//	parmac-train -worker -connect 127.0.0.1:9377 -rank 1 -p 2 &
//
// A fixed-seed run produces the same model on both transports (with
// -shuffle=false, bit for bit).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/binauto"
	"repro/internal/cluster"
	"repro/internal/cluster/tcp"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/retrieval"
)

type options struct {
	n, d, clusters, bits, p int
	epochs, iters, queries  int
	cores                   int
	mu0, muFactor           float64
	shuffle, approxZ        bool
	seed                    int64
	rescueTimeout           time.Duration
	csvPath                 string
	out, load, saveCodes    string

	transport   string
	coordinator bool
	worker      bool
	listen      string
	connect     string
	rank        int
	spawn       bool
}

func parseFlags() *options {
	o := &options{}
	flag.IntVar(&o.n, "n", 5000, "training points")
	flag.IntVar(&o.d, "d", 64, "feature dimension")
	flag.IntVar(&o.clusters, "clusters", 16, "mixture components in the synthetic data")
	flag.IntVar(&o.bits, "bits", 16, "code length L")
	flag.IntVar(&o.p, "p", 4, "machines P")
	flag.IntVar(&o.epochs, "e", 1, "epochs per W step")
	flag.IntVar(&o.cores, "cores", 0, "Z-step goroutines per machine (0/1 serial, -1 all cores)")
	flag.IntVar(&o.iters, "iters", 10, "MAC iterations")
	flag.Float64Var(&o.mu0, "mu0", 1e-4, "initial penalty parameter")
	flag.Float64Var(&o.muFactor, "mufactor", 2, "penalty growth factor")
	flag.BoolVar(&o.shuffle, "shuffle", true, "shuffle ring and minibatches")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.DurationVar(&o.rescueTimeout, "rescue-timeout", 0,
		"bound on failure-detection and rescue waits after a machine dies (0 = engine default; keep above the slowest single training visit)")
	flag.IntVar(&o.queries, "queries", 100, "evaluation queries")
	flag.StringVar(&o.csvPath, "csv", "", "load training features from this CSV instead of generating synthetic data (queries are split off the tail)")
	flag.BoolVar(&o.approxZ, "approxz", true, "use the alternating Z step instead of exact enumeration")
	flag.StringVar(&o.out, "out", "", "write the trained model JSON here")
	flag.StringVar(&o.load, "load", "", "skip training; evaluate this model JSON")
	flag.StringVar(&o.saveCodes, "save-codes", "", "write the encoded training set here as a packed-code index (parmac-serve -index)")

	flag.StringVar(&o.transport, "transport", "inproc", "cluster transport: inproc (machine goroutines) or tcp (one OS process per machine)")
	flag.BoolVar(&o.coordinator, "coordinator", false, "run as the TCP coordinator and wait for externally launched workers")
	flag.BoolVar(&o.worker, "worker", false, "run as one TCP worker machine (requires -connect and -rank)")
	flag.StringVar(&o.listen, "listen", "127.0.0.1:0", "coordinator rendezvous address")
	flag.StringVar(&o.connect, "connect", "", "worker: coordinator rendezvous address")
	flag.IntVar(&o.rank, "rank", -1, "worker: machine rank in [0, p)")
	flag.BoolVar(&o.spawn, "spawn", true, "tcp coordinator: auto-spawn the worker processes")
	flag.Parse()
	if o.coordinator || o.worker {
		o.transport = "tcp"
	}
	return o
}

func main() {
	o := parseFlags()

	if o.worker {
		runWorker(o)
		return
	}

	ds, qs := buildDatasets(o)
	// -cores drives the evaluation scans too: ground truth, encoding and the
	// Hamming retrieval are all query/point-parallel.
	truth := retrieval.GroundTruthParallel(ds, qs, 50, o.cores)

	var model *binauto.Model
	if o.load != "" {
		f, err := os.Open(o.load)
		fatalIf(err)
		model, err = binauto.Load(f)
		closeErr := f.Close()
		fatalIf(err)
		fatalIf(closeErr)
		fmt.Printf("loaded model: L=%d D=%d\n", model.L(), model.D())
	} else {
		switch o.transport {
		case "inproc":
			model = trainInProcess(o, ds)
		case "tcp":
			model = trainTCP(o, ds)
		default:
			fatalIf(fmt.Errorf("unknown -transport %q", o.transport))
		}
	}

	base := model.EncodeParallel(ds, o.cores)
	qc := model.EncodeParallel(qs, o.cores)
	retr := retrieval.AllTopKHamming(base, qc, 50, o.cores)
	fmt.Printf("retrieval precision (K=k=50): %.3f\n", retrieval.Precision(truth, retr))

	if o.out != "" {
		f, err := os.Create(o.out)
		fatalIf(err)
		fatalIf(model.Save(f))
		fatalIf(f.Close())
		fmt.Printf("model written to %s\n", o.out)
	}
	if o.saveCodes != "" {
		f, err := os.Create(o.saveCodes)
		fatalIf(err)
		fatalIf(base.Save(f))
		fatalIf(f.Close())
		fmt.Printf("index written to %s (N=%d L=%d, %d bytes packed)\n",
			o.saveCodes, base.N, base.L, base.MemoryBytes())
	}
}

// buildDatasets constructs the base and query sets — deterministically from
// the flags, so the coordinator and every worker process agree on the data.
func buildDatasets(o *options) (ds, qs *dataset.Dataset) {
	if o.csvPath != "" {
		f, err := os.Open(o.csvPath)
		fatalIf(err)
		full, err := dataset.LoadCSV(f)
		closeErr := f.Close()
		fatalIf(err)
		fatalIf(closeErr)
		if full.N <= o.queries {
			fatalIf(fmt.Errorf("csv has %d rows; need more than %d", full.N, o.queries))
		}
		baseIdx := make([]int, full.N-o.queries)
		qIdx := make([]int, o.queries)
		for i := range baseIdx {
			baseIdx[i] = i
		}
		for i := range qIdx {
			qIdx[i] = full.N - o.queries + i
		}
		ds, qs = full.Subset(baseIdx), full.Subset(qIdx)
		o.n, o.d = ds.N, ds.D
		return ds, qs
	}
	return dataset.WithQueries(o.n, o.queries, o.d, o.clusters, o.seed, true)
}

// buildProblem constructs the sharded BA problem, identically in every
// process.
func buildProblem(o *options, ds *dataset.Dataset) *binauto.ParMACProblem {
	shards := dataset.ShuffledShardIndices(o.n, o.p, nil, o.seed)
	zm := binauto.ZAuto
	if o.approxZ {
		zm = binauto.ZAlternate
	}
	return binauto.NewParMACProblem(ds, shards, binauto.ParMACConfig{
		L: o.bits, Mu0: o.mu0, MuFactor: o.muFactor, ZMethod: zm, Seed: o.seed,
		Parallel: o.cores,
	})
}

func engineConfig(o *options) core.Config {
	return core.Config{
		P: o.p, Epochs: o.epochs, Shuffle: o.shuffle, Seed: o.seed,
		RescueTimeout: o.rescueTimeout,
	}
}

// reportFailures surfaces machine deaths from an iteration's run report.
// Every death the engine knows is transport-detected, hence "unannounced".
func reportFailures(res core.IterationResult) {
	for _, ev := range res.Failures {
		switch {
		case ev.LostToken >= 0 && ev.FromRank >= 0:
			fmt.Fprintf(os.Stderr, "iter %d: machine %d died (unannounced); submodel %d restored from machine %d\n",
				res.Iter, ev.Rank, ev.LostToken, ev.FromRank)
		case ev.LostToken >= 0:
			fmt.Fprintf(os.Stderr, "iter %d: machine %d died (unannounced); submodel %d restarted from the coordinator copy\n",
				res.Iter, ev.Rank, ev.LostToken)
		default:
			fmt.Fprintf(os.Stderr, "iter %d: machine %d died (unannounced)\n", res.Iter, ev.Rank)
		}
	}
	if res.DroppedFrames > 0 {
		fmt.Fprintf(os.Stderr, "iter %d: %d frames dropped toward departed machines\n", res.Iter, res.DroppedFrames)
	}
}

func trainInProcess(o *options, ds *dataset.Dataset) *binauto.Model {
	prob := buildProblem(o, ds)
	eng := core.New(prob, engineConfig(o))
	defer eng.Shutdown()

	fmt.Printf("%5s %14s %14s %10s %12s\n", "iter", "E_Q", "E_BA", "Zchanged", "model bytes")
	for it := 0; it < o.iters; it++ {
		res := eng.Iterate()
		eq, eba := prob.Stats()
		fmt.Printf("%5d %14.1f %14.1f %10d %12d\n", it, eq, eba, res.ZChanged, res.ModelBytes)
		reportFailures(res)
	}
	return prob.AssembleModel()
}

// trainTCP runs the coordinator over the TCP fabric: P worker processes (one
// per machine) plus this process as the coordinator rank. E_Q is shard-local
// worker state and is not reported here; the nested error E_BA is computed
// from the circulated model, which the coordinator owns.
func trainTCP(o *options, ds *dataset.Dataset) *binauto.Model {
	hub, err := tcp.NewHub(o.listen, o.p+1)
	fatalIf(err)
	defer hub.Close()
	fmt.Printf("coordinator: rendezvous at %s, waiting for %d workers\n", hub.Addr(), o.p)

	var children []*exec.Cmd
	if o.spawn && !o.coordinator {
		children = spawnWorkers(o, hub.Addr())
	}

	comm, err := tcp.Connect(hub.Addr(), o.p)
	fatalIf(err)
	prob := buildProblem(o, ds)
	eng := core.NewDistributed(prob, engineConfig(o), comm)
	// The hub sits outside the coordinator's Comm, so frames dropped toward
	// departed workers are counted there, not in comm.Stats().
	eng.SetStatsSource(func() cluster.Stats {
		s := comm.Stats()
		s.Dropped = hub.DroppedFrames()
		return s
	})

	var model *binauto.Model
	fmt.Printf("%5s %14s %10s %12s %8s\n", "iter", "E_BA", "Zchanged", "model bytes", "alive")
	for it := 0; it < o.iters; it++ {
		res := eng.Iterate()
		model = prob.AssembleModel()
		fmt.Printf("%5d %14.1f %10d %12d %8d\n", it, model.EBA(ds), res.ZChanged, res.ModelBytes, res.AliveMachines)
		reportFailures(res)
	}

	eng.Shutdown()
	if err := comm.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "warning: close transport:", err)
	}
	// Workers say bye once they have drained the shutdown; only then may the
	// hub die with the coordinator process.
	if err := hub.Wait(30 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "warning:", err)
	}
	for _, c := range children {
		if err := c.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "worker %v exited: %v\n", c.Args, err)
		}
	}
	return model
}

// spawnWorkers launches this binary P times in worker mode, one OS process
// per ParMAC machine.
func spawnWorkers(o *options, addr string) []*exec.Cmd {
	self, err := os.Executable()
	fatalIf(err)
	var children []*exec.Cmd
	for r := 0; r < o.p; r++ {
		args := []string{
			"-worker", "-connect", addr, "-rank", strconv.Itoa(r),
			"-n", strconv.Itoa(o.n), "-d", strconv.Itoa(o.d),
			"-clusters", strconv.Itoa(o.clusters), "-bits", strconv.Itoa(o.bits),
			"-p", strconv.Itoa(o.p), "-seed", strconv.FormatInt(o.seed, 10),
			"-cores", strconv.Itoa(o.cores),
			"-mu0", fmt.Sprint(o.mu0), "-mufactor", fmt.Sprint(o.muFactor),
			"-approxz=" + strconv.FormatBool(o.approxZ),
			"-queries", strconv.Itoa(o.queries),
		}
		if o.csvPath != "" {
			args = append(args, "-csv", o.csvPath)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		fatalIf(cmd.Start())
		fmt.Printf("spawned worker %d (pid %d)\n", r, cmd.Process.Pid)
		children = append(children, cmd)
	}
	return children
}

// runWorker is one ParMAC machine as an OS process: rebuild the identical
// problem, attach to the fabric at the assigned rank, and serve the engine's
// protocol until shutdown.
func runWorker(o *options) {
	if o.connect == "" || o.rank < 0 || o.rank >= o.p {
		fatalIf(fmt.Errorf("worker mode needs -connect and -rank in [0,%d)", o.p))
	}
	ds, _ := buildDatasets(o)
	prob := buildProblem(o, ds)
	comm, err := tcp.Connect(o.connect, o.rank)
	fatalIf(err)
	// The rendezvous reveals the true cluster size; a -p that disagrees with
	// the coordinator's would silently shard the data differently here.
	if comm.Size() != o.p+1 {
		fatalIf(fmt.Errorf("worker built %d shards (-p %d) but the cluster has %d machines; pass the coordinator's flags to every worker",
			o.p, o.p, comm.Size()-1))
	}
	core.RunWorker(comm, prob, o.rank, core.WorkerOptions{
		Seed: core.WorkerSeed(o.seed, o.rank),
	})
	if err := comm.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "warning: close transport:", err)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
