package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/binauto"
	"repro/internal/cluster"
	_ "repro/internal/cluster/tcp" // registers the "tcp" loopback fabric
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pca"
	"repro/internal/retrieval"
	"repro/internal/speedup"
)

// trainRanks is P: the box has two hardware threads, so two ParMAC machines.
const trainRanks = 2

// trainSizes fixes one training workload. The three differ in which of the
// paper's §5 constants governs the iteration: W-step compute (t_r^W), Z-step
// compute (t_r^Z) or per-hop communication (t_c^W).
type trainSizes struct {
	Transport string
	N, D, L   int
	Epochs    int
	Iters     int
	ZMethod   binauto.ZMethod
	MinJobs   int // timed jobs per run, however short --seconds is
	// MinQuality is the workload's target: the share of the data's variance
	// the trained autoencoder must explain (1 − E_BA/TSS). It sits well below
	// what every seed reaches, so only a change that hurts learning misses it.
	MinQuality float64
}

// frozenTrain pins what unchanged code must reproduce: the final E_BA of the
// default seed, and the submodel traffic of one iteration, which follows from
// the sizes alone and holds for every seed.
type frozenTrain struct {
	FinalEBA     float64
	HopsPerIter  int64
	BytesPerIter int64
}

// trainData is what set-up builds once and every job of the run shares.
type trainData struct {
	ds       *dataset.Dataset
	initZ    *retrieval.Codes
	datasetS float64
	initS    float64
}

// setupTrain generates the dataset from the seed and initialises the codes
// with truncated PCA, the part of a training run that precedes the first
// iteration.
func setupTrain(sz trainSizes, seed int64) *trainData {
	t0 := time.Now()
	ds := dataset.SIFTLike(sz.N, sz.D, 16, seed)
	t1 := time.Now()
	initZ, _ := pca.InitialCodes(ds, sz.L, 2000, seed)
	return &trainData{ds: ds, initZ: initZ,
		datasetS: t1.Sub(t0).Seconds(), initS: time.Since(t1).Seconds()}
}

// totalSumSquares is Σ‖x − mean‖², the error of the best constant predictor;
// 1 − E_BA/TSS is the share of variance the autoencoder explains.
func totalSumSquares(ds *dataset.Dataset) float64 {
	mean := make([]float64, ds.D)
	buf := make([]float64, ds.D)
	for i := 0; i < ds.N; i++ {
		for j, v := range ds.Point(i, buf) {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(ds.N)
	}
	var tss float64
	for i := 0; i < ds.N; i++ {
		for j, v := range ds.Point(i, buf) {
			tss += (v - mean[j]) * (v - mean[j])
		}
	}
	return tss
}

// jobResult is one ParMAC training job: a fresh fabric, fresh problems, Iters
// iterations, shutdown.
type jobResult struct {
	startS  float64   // fabric, problems and worker goroutines, up to the first Iterate
	iterS   []float64 // wall of each Engine.Iterate
	stopS   float64   // shutdown, worker drain and fabric close
	eba     []float64 // E_BA after each iteration, NaN where not evaluated
	res     []core.IterationResult
	model   *binauto.Model
	zChange int
}

func (j jobResult) finalEBA() float64 { return j.eba[len(j.eba)-1] }

// wall is the job's own time; E_BA evaluation is not part of it.
func (j jobResult) wall() float64 { return j.startS + sum(j.iterS) + j.stopS }

// bestJob reduces the jobs of a run to one: each stage — start-up, every
// iteration, shutdown — at its least across the jobs. Jobs are bit-identical,
// so a stage differs between them only by what the machine did meanwhile, and
// whatever the host's other tenants do can only add to it: the least is the
// stage's cost on a quiet host, as long as one job met one at that stage.
func bestJob(jobs []jobResult) jobResult {
	stage := func(of func(jobResult) float64) float64 {
		best := math.Inf(1)
		for _, j := range jobs {
			best = min(best, of(j))
		}
		return best
	}
	out := jobResult{
		startS: stage(func(j jobResult) float64 { return j.startS }),
		stopS:  stage(func(j jobResult) float64 { return j.stopS }),
	}
	for it := range jobs[0].iterS {
		out.iterS = append(out.iterS, stage(func(j jobResult) float64 { return j.iterS[it] }))
	}
	return out
}

// failedIters counts iterations that reported a machine failure or lost a
// rank.
func (j jobResult) failedIters(p int) int {
	n := 0
	for _, r := range j.res {
		if len(r.Failures) > 0 || r.AliveMachines != p {
			n++
		}
	}
	return n
}

// runJob trains one job through the shared-nothing protocol path in one
// process: cluster.NewFabric → one goroutine per rank in core.RunWorker, each
// owning its problem instance → a core.NewDistributed coordinator on the last
// rank. With a tracer, every endpoint and problem is wrapped; the assembly is
// otherwise identical. E_BA is evaluated after every iteration when evalAll
// is set and after the last one otherwise, always between timed stages.
func runJob(td *trainData, sz trainSizes, seed int64, p int, transport string, evalAll bool, tr *tracer, op int) (jobResult, error) {
	var out jobResult
	began := time.Now()

	fab, err := cluster.NewFabric(transport, p+1)
	if err != nil {
		return out, err
	}
	shards := dataset.ShuffledShardIndices(td.ds.N, p, nil, seed)
	newProblem := func() *binauto.ParMACProblem {
		return binauto.NewParMACProblem(td.ds, shards, binauto.ParMACConfig{
			L: sz.L, Mu0: 1e-4, MuFactor: 2, ZMethod: sz.ZMethod, Seed: seed, InitZ: td.initZ,
		})
	}
	comms := make([]*cluster.Comm, p+1)
	probs := make([]core.Problem, p+1)
	recs := make([]*recorder, p+1)
	coordProb := newProblem()
	for r := 0; r <= p; r++ {
		prob := coordProb
		if r < p {
			prob = newProblem()
		}
		if tr == nil {
			comms[r], probs[r] = fab.Comm(r), prob
			continue
		}
		ef, ok := fab.(cluster.EndpointFabric)
		if !ok {
			return out, fmt.Errorf("fabric %T does not expose endpoints to trace", fab)
		}
		recs[r] = tr.recorder(r, op)
		comms[r] = cluster.NewComm(newTracedEndpoint(ef.Endpoint(r), recs[r]))
		probs[r] = &tracedProblem{ParMACProblem: prob, rec: recs[r]}
	}

	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			core.RunWorker(comms[r], probs[r], r, core.WorkerOptions{Seed: core.WorkerSeed(seed, r)})
		}(r)
	}
	// Shuffle off: visit order is then fixed, so the model is bit-identical
	// across transports and across jobs.
	eng := core.NewDistributed(probs[p], core.Config{P: p, Epochs: sz.Epochs, Seed: seed}, comms[p])
	eng.SetStatsSource(fab.Stats)

	out.startS = time.Since(began).Seconds()
	for it := 0; it < sz.Iters; it++ {
		t0 := time.Now()
		id := recs[p].beginAt("iterate", t0)
		res := eng.Iterate()
		t1 := time.Now()
		recs[p].endAt(id, t1)
		out.iterS = append(out.iterS, t1.Sub(t0).Seconds())
		out.res = append(out.res, res)
		out.zChange += res.ZChanged
		eba := math.NaN()
		if evalAll || it == sz.Iters-1 {
			out.model = coordProb.AssembleModel().Clone()
			eba = out.model.EBA(td.ds)
		}
		out.eba = append(out.eba, eba)
	}
	stopping := time.Now()
	eng.Shutdown()
	wg.Wait() // workers must drain their shutdown before the fabric dies
	if err := fab.Close(); err != nil {
		return out, fmt.Errorf("close fabric: %w", err)
	}
	out.stopS = time.Since(stopping).Seconds()
	return out, nil
}

// modelsIdentical reports whether two trained autoencoders agree bit for bit.
func modelsIdentical(a, b *binauto.Model) bool {
	if a.L() != b.L() || a.D() != b.D() {
		return false
	}
	same := func(x, y []float64) bool {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return len(x) == len(y)
	}
	for l := range a.Enc {
		if math.Float64bits(a.Enc[l].B) != math.Float64bits(b.Enc[l].B) || !same(a.Enc[l].W, b.Enc[l].W) {
			return false
		}
	}
	return same(a.Dec.C, b.Dec.C) && same(a.Dec.W.Data, b.Dec.W.Data)
}

// runTrain measures one training workload untraced, in rounds: set-up, then
// one job. The first round's job is an in-process reference: it warms the
// process and is the oracle every timed job must reproduce bit for bit —
// which, for the TCP workload, is the transport-independence check. Timed
// rounds follow for `seconds` of job wall and are reduced to the best job;
// setup_s is the best of the rounds' set-ups likewise. Setting up before every
// job spreads the set-ups over the run, so that one of them meets a quiet host
// if any part of the run does.
func runTrain(sz trainSizes, frozen *frozenTrain, seed int64, seconds float64, rep *report) error {
	var setups []float64
	setup := func() *trainData {
		// The previous round's dataset is garbage by now; collecting it here
		// keeps the repeats, the benchmark's artefact, out of peak_rss_mb.
		runtime.GC()
		t0 := time.Now()
		td := setupTrain(sz, seed)
		setups = append(setups, time.Since(t0).Seconds())
		return td
	}
	td := setup()
	tss := totalSumSquares(td.ds)

	ref, err := runJob(td, sz, seed, trainRanks, "inproc", false, nil, 0)
	if err != nil {
		return err
	}
	quality := 1 - ref.finalEBA()/tss
	reached := quality >= sz.MinQuality
	rep.check(fmt.Sprintf("trained model reaches the quality target (explains %.4f of the variance, target %.2f)",
		quality, sz.MinQuality), reached)
	if frozen != nil && seed == defaultSeed {
		if rel := math.Abs(ref.finalEBA()-frozen.FinalEBA) / frozen.FinalEBA; rel > 1e-9 {
			rep.note("arithmetic_changed: final E_BA %.17g, frozen %.17g (allowed while the target is met)",
				ref.finalEBA(), frozen.FinalEBA)
		}
	}

	var jobs []jobResult
	var walls, iters []float64
	identical, traffic := true, true
	// A job that would end after `seconds` is not started, MinJobs permitting.
	for job := 1; len(jobs) < sz.MinJobs || sum(walls)+walls[len(walls)-1] <= seconds; job++ {
		td = nil
		td = setup()
		j, err := runJob(td, sz, seed, trainRanks, sz.Transport, false, nil, job)
		if err != nil {
			return err
		}
		failed := j.failedIters(trainRanks)
		if same := modelsIdentical(j.model, ref.model); !same || !reached {
			identical = identical && same
			failed = sz.Iters // the job did not demonstrably reach the target
		}
		rep.Attempted += sz.Iters
		rep.Failed += failed
		jobs = append(jobs, j)
		walls = append(walls, j.wall())
		iters = append(iters, j.iterS...)
		for _, r := range j.res {
			if frozen != nil && (r.ModelMessages != frozen.HopsPerIter || r.ModelBytes != frozen.BytesPerIter) {
				traffic = false
			}
		}
	}
	rep.check(sz.Transport+" jobs reproduce the inproc reference model bit for bit", identical)
	if frozen != nil {
		rep.check(fmt.Sprintf("every iteration moves %d submodels and %d bytes", frozen.HopsPerIter, frozen.BytesPerIter), traffic)
	}

	best := bestJob(jobs)
	rep.detail("setup_s", "s", summarize(setups))
	rep.detail("job_wall_s", "s", summarize(walls))
	rep.detail("iteration_s", "s", summarize(iters))
	rep.note("best job of %d: start %.4f s, %d iterations %.4f s, stop %.4f s",
		len(jobs), best.startS, sz.Iters, sum(best.iterS), best.stopS)
	rep.note("final E_BA %.17g; %d hops, %d bytes per iteration",
		ref.finalEBA(), ref.res[0].ModelMessages, ref.res[0].ModelBytes)

	rep.metric("setup_s", "s", slices.Min(setups))
	rep.metric("op_p50_ms", "ms", 1e3*median(best.iterS))
	rep.metric("slo_ms", "ms", 1e3*(best.startS+sum(best.iterS)))
	rep.metric("throughput_per_s", "1/s", float64(sz.N*sz.Iters)/best.wall())
	rep.metric("quality_frac", "share", quality)
	return nil
}

// traceTrain is the traced run of a training workload: untraced and traced
// jobs side by side for the tracing overhead, the traced job's spans reduced
// to per-layer busy and wait times, calibration calls straight into the
// layers for the §5 constants, and the same job on one worker as the baseline
// the measured speedup is taken against.
func traceTrain(name string, sz trainSizes, seed int64, outDir string, rep *report) error {
	td := setupTrain(sz, seed)
	rep.metric("setup.dataset_s", "s", td.datasetS)
	rep.metric("setup.init_codes_s", "s", td.initS)

	ref, err := runJob(td, sz, seed, trainRanks, "inproc", true, nil, 0)
	if err != nil {
		return err
	}
	rep.note("E_BA after each iteration: %.6g", ref.eba)
	// Each round runs the job untraced, traced and — for the TCP workload — on
	// the in-process fabric, back to back. The jobs are bit-identical, so each
	// kind is reduced to its best job, as an untraced run's jobs are, and the
	// tracing overhead and the TCP tax are ratios of the best jobs' iteration
	// time. The spans and counts reported are the first round's.
	const rounds = 3
	tr := newTracer()
	var plain, traced, twins []jobResult
	for round := 0; round < rounds; round++ {
		u, err := runJob(td, sz, seed, trainRanks, sz.Transport, false, nil, 0)
		if err != nil {
			return err
		}
		jobTracer := tr
		if round > 0 {
			jobTracer = newTracer()
		}
		t, err := runJob(td, sz, seed, trainRanks, sz.Transport, false, jobTracer, 1)
		if err != nil {
			return err
		}
		plain, traced = append(plain, u), append(traced, t)
		if sz.Transport != "inproc" {
			twin, err := runJob(td, sz, seed, trainRanks, "inproc", false, nil, 0)
			if err != nil {
				return err
			}
			twins = append(twins, twin)
		}
		rep.Attempted += 2 * sz.Iters
		rep.Failed += u.failedIters(trainRanks) + t.failedIters(trainRanks)
		rep.check("untraced and traced models bit-identical to the reference",
			modelsIdentical(t.model, ref.model) && modelsIdentical(u.model, ref.model))
	}
	tj := traced[0]
	bestPlain := bestJob(plain)
	spans := tr.spans()
	if err := writeSpans(outDir, name, spans); err != nil {
		return err
	}
	rep.metric("trace.overhead_frac", "share", sum(bestJob(traced).iterS)/sum(bestPlain.iterS)-1)

	// Reduce the traced job's spans.
	self := selfSeconds(spans)
	var wBusy, wPhase, tokenWait, deliver, zBusy, coordWait, iterate float64
	var iterS []float64
	for i, s := range spans {
		parent := ""
		if s.Parent >= 0 {
			parent = spans[s.Parent].Name
		}
		kind, _, _ := strings.Cut(s.Name, ":")
		switch {
		case s.Name == "wphase":
			wBusy += self[i]
			wPhase += s.seconds()
		case s.Name == "zstep":
			zBusy += s.seconds()
		case s.Name == "iterate":
			iterate += s.seconds()
			iterS = append(iterS, s.seconds())
		case kind == "deliver":
			deliver += s.seconds()
		case kind == "next" && parent == "wphase":
			tokenWait += s.seconds()
		case kind == "next" && parent == "iterate":
			coordWait += s.seconds()
		}
	}
	rankTime := trainRanks * iterate
	var hops, bytes int64
	fixes, failures := 0, 0
	for _, r := range tj.res {
		hops += r.ModelMessages
		bytes += r.ModelBytes
		fixes += r.FixMessages
		failures += len(r.Failures)
	}
	rep.metric("binauto.w_busy_s", "s", wBusy)
	rep.metric("binauto.w_share", "share", wBusy/rankTime)
	rep.metric("binauto.z_busy_s", "s", zBusy)
	rep.metric("binauto.z_share", "share", zBusy/rankTime)
	rep.metric("binauto.z_changed", "count", float64(tj.zChange))
	rep.metric("binauto.final_eba", "E_BA", tj.finalEBA())
	rep.metric("cluster.deliver_s", "s", deliver)
	rep.metric("cluster.token_wait_s", "s", tokenWait)
	rep.metric("cluster.hops", "count", float64(hops))
	rep.metric("cluster.model_bytes", "count", float64(bytes))
	rep.metric("core.iter_p50_s", "s", median(iterS))
	rep.metric("core.coord_wait_s", "s", coordWait)
	rep.metric("core.idle_frac", "share", tokenWait/wPhase)
	rep.metric("core.fix_messages", "count", float64(fixes))
	rep.metric("core.failures", "count", float64(failures))

	if len(twins) > 0 {
		// Whatever the identical iterations cost more on TCP than on inproc
		// is encode, sockets, hub and token wait.
		rep.metric("cluster.tcp.tax_frac", "share", 1-sum(bestJob(twins).iterS)/sum(bestPlain.iterS))
	}

	// Calibration: the §5 constants, each measured by calling the layer
	// directly.
	cal := calibrateTrain(td, sz, seed)
	rep.metric("cluster.inproc.hop_us", "us", 1e6*cal.hopS["inproc"])
	rep.metric("cluster.tcp.hop_us", "us", 1e6*cal.hopS["tcp"])
	rep.metric("model.t_r_w_us", "us", 1e6*cal.tWr)
	rep.metric("model.t_c_w_us", "us", 1e6*cal.hopS[sz.Transport])
	rep.metric("model.t_r_z_us", "us", 1e6*cal.tZr)
	params := speedup.Params{N: sz.N, M: speedup.EffectiveSubmodels(sz.L), E: sz.Epochs,
		TWr: cal.tWr, TWc: cal.hopS[sz.Transport], TZr: cal.tZr}
	rep.metric("model.speedup_pred_p2", "ratio", params.Speedup(trainRanks))

	single, err := runJob(td, sz, seed, 1, sz.Transport, false, nil, 0)
	if err != nil {
		return err
	}
	rep.metric("model.speedup_meas_p2", "ratio", single.wall()/bestPlain.wall())
	return nil
}

// trainCalibration holds the fitted §5 constants, in seconds.
type trainCalibration struct {
	tWr  float64            // W-step compute per submodel and point
	tZr  float64            // Z-step compute per submodel and point
	hopS map[string]float64 // one-way submodel hop, per transport
}

// calibrateTrain times the layers in isolation: Submodel.TrainOn over one
// shard, Problem.ZStep over one shard, and a token ping-pong on each fabric.
func calibrateTrain(td *trainData, sz trainSizes, seed int64) trainCalibration {
	shards := dataset.ShuffledShardIndices(td.ds.N, trainRanks, nil, seed)
	prob := binauto.NewParMACProblem(td.ds, shards, binauto.ParMACConfig{
		L: sz.L, Mu0: 1e-4, MuFactor: 2, ZMethod: sz.ZMethod, Seed: seed, InitZ: td.initZ,
	})
	prob.OnIterationStart(0)
	subs := prob.Submodels()
	shard := prob.Shard(0)
	order := make([]int, shard.NumPoints())
	for i := range order {
		order[i] = i
	}
	t0 := time.Now()
	for _, sm := range subs {
		sm.TrainOn(shard, order)
	}
	tw := time.Since(t0).Seconds()
	t0 = time.Now()
	prob.ZStep(0, subs)
	tz := time.Since(t0).Seconds()
	work := float64(len(subs) * shard.NumPoints())
	cal := trainCalibration{tWr: tw / work, tZr: tz / work, hopS: map[string]float64{}}
	for _, transport := range []string{"inproc", "tcp"} {
		cal.hopS[transport] = tokenHopSeconds(transport, subs[0])
	}
	return cal
}

// tokenHopSeconds bounces a core.Token carrying a real submodel between two
// ranks over Comm.Send/Recv and returns the one-way time.
func tokenHopSeconds(transport string, sm core.Submodel) float64 {
	const rounds, tag = 2000, 1
	fab, err := cluster.NewFabric(transport, 2)
	if err != nil {
		return math.NaN()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := fab.Comm(1)
		for i := 0; i < rounds; i++ {
			m := c.Recv(tag)
			c.Send(0, tag, m.Payload, sm.Bytes())
		}
	}()
	c := fab.Comm(0)
	var tok any = &core.Token{SM: sm, Route: []int{0, 1}, Train: 1}
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		c.Send(1, tag, tok, sm.Bytes())
		tok = c.Recv(tag).Payload
	}
	hop := time.Since(t0).Seconds() / (2 * rounds)
	<-done
	fab.Close()
	return hop
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
