// Command bench is the repository's benchmark: three training workloads, one
// per §5 runtime constant, and two HTTP serving workloads, each checked for
// correctness in the run that times it. See README.md in this directory.
//
//	bash bench/run.sh --workload train_wstep --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh --workload serve_mixed --seed 1 --seconds 24 --trace 1
//	bash bench/run.sh -all -out bench/results/aa_1.json,bench/results/aa_2.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/binauto"
)

const defaultSeed = 1

// metricDef names a metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists what an untraced run reports, on every workload. The
// training and serving meanings of each are in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"slo_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"quality_frac", "share"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists what a traced run reports. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"binauto.w_busy_s", "s"}, {"binauto.w_share", "share"},
	{"binauto.z_busy_s", "s"}, {"binauto.z_share", "share"}, {"binauto.z_changed", "count"},
	{"binauto.final_eba", "E_BA"}, {"binauto.encode_us", "us"},
	{"cluster.deliver_s", "s"}, {"cluster.token_wait_s", "s"},
	{"cluster.hops", "count"}, {"cluster.model_bytes", "count"},
	{"cluster.tcp.hop_us", "us"}, {"cluster.inproc.hop_us", "us"}, {"cluster.tcp.tax_frac", "share"},
	{"core.iter_p50_s", "s"}, {"core.coord_wait_s", "s"}, {"core.idle_frac", "share"},
	{"core.fix_messages", "count"}, {"core.failures", "count"},
	{"model.t_r_w_us", "us"}, {"model.t_c_w_us", "us"}, {"model.t_r_z_us", "us"},
	{"model.speedup_pred_p2", "ratio"}, {"model.speedup_meas_p2", "ratio"},
	{"retrieval.linear_search_ms", "ms"}, {"retrieval.scan_ns_per_code", "ns"},
	{"retrieval.mih_search_ms", "ms"}, {"retrieval.mih_max_posting", "count"},
	{"retrieval.mih_mean_posting", "count"}, {"retrieval.add_ms", "ms"},
	{"serve.lone_request_ms", "ms"}, {"serve.queue_batch_ms", "ms"}, {"serve.http_json_ms", "ms"}, {"serve.mean_batch", "count"},
	{"serve.allocs_per_req", "count"}, {"serve.req_bytes", "count"}, {"serve.resp_bytes", "count"},
	{"serve.add_p50_ms", "ms"}, {"serve.add_p90_ms", "ms"}, {"serve.add_count", "count"},
	{"loadgen.open_p50_ms", "ms"}, {"loadgen.open_p95_ms", "ms"}, {"loadgen.late_p95_ms", "ms"}, {"loadgen.sent", "count"}, {"loadgen.ok", "count"},
	{"setup.dataset_s", "s"}, {"setup.init_codes_s", "s"}, {"setup.index_build_s", "s"}, {"setup.warmup_s", "s"},
	{"trace.overhead_frac", "share"},
}

// workload is one benchmark scenario: exactly one of train and serve is set.
type workload struct {
	Name   string
	train  *trainSizes
	frozen *frozenTrain
	serve  *serveSizes
}

// workloads are the five frozen scenarios. Sizes were tuned once, before the
// first recording, so that each stresses the layer it is named for (the
// measured shares are in README.md); perf changes may not edit them.
var workloads = []workload{
	{
		Name: "train_wstep",
		train: &trainSizes{Transport: "inproc", N: 40000, D: 128, L: 16, Epochs: 1, Iters: 8,
			ZMethod: binauto.ZAlternate, MinJobs: 3, MinQuality: 0.80},
		frozen: &frozenTrain{FinalEBA: 322643.61551311892, HopsPerIter: 64, BytesPerIter: 67840},
	},
	{
		Name: "train_zstep",
		train: &trainSizes{Transport: "inproc", N: 10000, D: 128, L: 12, Epochs: 1, Iters: 6,
			ZMethod: binauto.ZEnumerate, MinJobs: 3, MinQuality: 0.65},
		frozen: &frozenTrain{FinalEBA: 273573.88902230072, HopsPerIter: 48, BytesPerIter: 51392},
	},
	{
		Name: "train_comm",
		train: &trainSizes{Transport: "tcp", N: 240, D: 128, L: 32, Epochs: 8, Iters: 12,
			ZMethod: binauto.ZAlternate, MinJobs: 3, MinQuality: 0.75},
		frozen: &frozenTrain{FinalEBA: 2018.0612997563621, HopsPerIter: 1024, BytesPerIter: 1069056},
	},
	{
		Name:  "serve_scan",
		serve: &serveSizes{Kind: "linear", N: 400000, L: 64, K: 50, OpenQPS: 125, LimitMs: 50},
	},
	{
		Name: "serve_mixed",
		serve: &serveSizes{Kind: "mih", N: 200000, L: 32, K: 10, Vector: true, Clusters: 256, OpenQPS: 600,
			LimitMs: 10, AddsPerS: 10, AddBatch: 256, AddCodes: 256 * 10 * 30},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is a metric with its spread, for the human-readable output.
type detail struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	summary
}

// report collects what one run of one workload measured and checked.
type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	GitRev     string            `json:"git_rev"`
	NumCPU     int               `json:"num_cpu"`
	GoMaxProcs int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Details    []detail          `json:"details,omitempty"`
	Checks     []string          `json:"checks"`
	Notes      []string          `json:"notes,omitempty"`
}

func newReport(workload string, seed int64, seconds float64, trace int) *report {
	return &report{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		GitRev: "unknown", NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Correct: true, Metrics: map[string]metric{}}
}

func (r *report) metric(name, unit string, v float64) { r.Metrics[name] = metric{v, unit} }

func (r *report) detail(name, unit string, s summary) {
	r.Details = append(r.Details, detail{name, unit, s})
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// check records a correctness check; one failure makes the run incorrect.
func (r *report) check(what string, ok bool) {
	verdict := "ok"
	if !ok {
		verdict = "FAILED"
		r.Correct = false
	}
	r.Checks = append(r.Checks, verdict+": "+what)
}

// finish settles the verdict, fills the metric set the mode promises and fails
// the run if a promised metric is missing.
func (r *report) finish() error {
	if r.Failed > 0 || r.Attempted < 1 {
		r.Correct = false
	}
	want := endToEnd
	if r.Trace != 0 {
		want = perLayer
		for _, d := range want {
			if _, ok := r.Metrics[d.Name]; !ok {
				r.metric(d.Name, d.Unit, 0) // a layer this workload does not exercise
			}
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("run produced %d metrics, mode promises %d", len(r.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := r.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			return fmt.Errorf("metric %s [%s] missing or in the wrong unit", d.Name, d.Unit)
		}
	}
	return nil
}

// print writes the human-readable lines, then the one-line JSON result.
func (r *report) print() error {
	for _, n := range r.Notes {
		fmt.Println("note:", n)
	}
	for _, c := range r.Checks {
		fmt.Println("check:", c)
	}
	for _, d := range r.Details {
		fmt.Printf("detail: %-22s %-6s %-12s median %.6g  q1 %.6g  q3 %.6g  n %d\n",
			d.Name, d.Unit, r.Workload, d.Median, d.Q1, d.Q3, d.N)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("metric: %-28s %-6s %-12s %.6g\n", name, r.Metrics[name].Unit, r.Workload, r.Metrics[name].Value)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload executes one workload in this process, untraced or traced.
func runWorkload(w *workload, seed int64, seconds float64, trace int, outDir string) (*report, error) {
	rep := newReport(w.Name, seed, seconds, trace)
	var err error
	switch {
	case w.train != nil && trace == 0:
		err = runTrain(*w.train, w.frozen, seed, seconds, rep)
	case w.train != nil:
		err = traceTrain(w.Name, *w.train, seed, outDir, rep)
	case trace == 0:
		err = runServe(*w.serve, seed, seconds, rep)
	default:
		err = traceServe(w.Name, *w.serve, seed, seconds, outDir, rep)
	}
	if err != nil {
		return nil, err
	}
	if trace == 0 {
		rep.metric("peak_rss_mb", "MB", peakRSSMB())
	}
	return rep, rep.finish()
}

// peakRSSMB is the process's high-water resident set (VmHWM), falling back to
// the Go runtime's view where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if _, err := fmt.Sscan(rest, &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// gitRev is the checkout's commit, or "unknown" outside a git repository.
// Only -all looks it up: a single run must not reach outside its checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// accepted checks one workload's traced report against what the workload was
// built to show: the layer it is named for holds its share of the time, and
// tracing costs under 5%. It returns one line per criterion and whether all
// held.
func accepted(layer *report) (lines []string, ok bool) {
	v := func(name string) float64 { return layer.Metrics[name].Value }
	ok = true
	expect := func(what string, got float64, holds bool, want string) {
		verdict := "ok"
		if !holds {
			verdict, ok = "MISSED", false
		}
		lines = append(lines, fmt.Sprintf("%s: %-12s %s = %.3f, want %s", verdict, layer.Workload, what, got, want))
	}
	atLeast := func(what string, got, min float64) {
		expect(what, got, got >= min, fmt.Sprintf(">= %.2f", min))
	}
	switch layer.Workload {
	case "train_wstep":
		atLeast("binauto.w_share", v("binauto.w_share"), 0.7)
	case "train_zstep":
		atLeast("binauto.z_share", v("binauto.z_share"), 0.5)
	case "train_comm":
		atLeast("cluster.tcp.tax_frac", v("cluster.tcp.tax_frac"), 0.5)
	case "serve_scan":
		atLeast("retrieval.linear_search_ms / serve.lone_request_ms",
			v("retrieval.linear_search_ms")/v("serve.lone_request_ms"), 0.8)
	case "serve_mixed":
		atLeast("(serve.http_json_ms + serve.queue_batch_ms + binauto.encode_us) / serve.lone_request_ms",
			(v("serve.http_json_ms")+v("serve.queue_batch_ms")+v("binauto.encode_us")/1e3)/v("serve.lone_request_ms"), 0.5)
	}
	expect("trace.overhead_frac", v("trace.overhead_frac"), v("trace.overhead_frac") < 0.05, "< 0.05")
	return lines, ok
}

// runAll re-executes this binary once per workload and mode, sequentially, so
// every workload gets a fresh process, and writes the collected reports, one
// file per set. With several sets, the sets' runs of one workload alternate,
// so that the files compare runs made minutes apart, not hours. It fails if a
// run fails or a traced run misses what accepted wants.
func runAll(seed int64, seconds float64, outDir string, outFiles []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rev := gitRev()
	sets := make([][]*report, len(outFiles))
	allOK := true
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			for set := range sets {
				cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "-outdir", outDir)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s trace=%d: %w", w.Name, trace, err)
				}
				data, err := os.ReadFile(reportPath(outDir, w.Name, trace))
				if err != nil {
					return err
				}
				rep := new(report)
				if err := json.Unmarshal(data, rep); err != nil {
					return err
				}
				rep.GitRev = rev
				if trace == 1 {
					lines, ok := accepted(rep)
					for _, l := range lines {
						fmt.Println("accept:", l)
					}
					rep.Checks = append(rep.Checks, lines...)
					allOK = allOK && ok
				}
				sets[set] = append(sets[set], rep)
			}
		}
	}
	for set, file := range outFiles {
		data, err := json.MarshalIndent(sets[set], "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allOK {
		return fmt.Errorf("a traced run missed its acceptance criteria (the accept: lines above)")
	}
	return nil
}

func reportPath(outDir, workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("report_%s_trace%d.json", workload, trace))
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", defaultSeed, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 24, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	all := flag.Bool("all", false, "run every workload, untraced then traced, each in a fresh process")
	outDir := flag.String("outdir", filepath.Join("bench", "out"), "directory for span files and full reports")
	outFiles := flag.String("out", filepath.Join("bench", "out", "all.json"), "with -all: file the collected reports are written to; a comma-separated list runs that many interleaved sets")
	spin := flag.Int("idle-spin", -1, "internal: run as the spinner of this CPU (see keepAwake)")
	flag.Parse()

	if *spin >= 0 {
		idleSpin(*spin)
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *all {
		if err := runAll(*seed, *seconds, *outDir, strings.Split(*outFiles, ",")); err != nil {
			fatal(err)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown -workload %q (have %s)", *name, workloadNames()))
	}
	stopSpinners, err := keepAwake()
	if err != nil {
		fatal(err)
	}
	rep, err := runWorkload(w, *seed, *seconds, *trace, *outDir)
	stopSpinners()
	if err != nil {
		fatal(err)
	}
	if data, err := json.MarshalIndent(rep, "", " "); err == nil {
		err = os.WriteFile(reportPath(*outDir, w.Name, *trace), data, 0o644)
		if err != nil {
			fatal(err)
		}
	}
	if err := rep.print(); err != nil {
		fatal(err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
