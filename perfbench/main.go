// perfbench is the repository's end-to-end benchmark. It drives one
// workload for a fixed number of ops, checks every decision the program
// returns against a reference computed before the clock starts, and
// prints one JSON result line:
//
//	perfbench --workload serve-herd --seed 7 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same ops
// with spans recorded around the calls into each layer and reports the
// per-layer metrics instead. --self-test checks that a corrupted
// reference digest and an out-of-sequence delta each fail a run.
// WORKLOADS.md describes the workloads, their ops and what each metric
// is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // result directory inside the checkout; each run works in a fresh subdirectory

	// inject names a deliberate fault for the self-test: a corrupted
	// reference digest or an out-of-sequence delta. Empty in real runs.
	inject string
	// opsOverride replaces the op count derived from --seconds (self-test
	// only, where runs are kept short and the tail is not reported).
	opsOverride int
}

const (
	injectDigest   = "corrupt-digest"
	injectSequence = "out-of-sequence"
)

// workload is one benchmark input set. nominalOps is the op count of a
// 10-second run; runs of other lengths scale it. The tail percentile is
// fixed per workload, so every run reports the same percentile: the
// highest whole one leaving at least minBeyond samples above it at the
// nominal count, except on serve-dense. There p99 would be the slowest 1%
// of single observes, a tenth of a second of the timed phase, which any
// brief stall of a shared machine sets; p95 leaves 153 samples beyond it.
//
// Throughput is the median over windows of the timed phase of the ops
// completed per wall second, so one stall (a neighbour on the machine, a
// slow fsync) moves it no more than it moves the median latency. Op
// counts are whole windows.
//
// A serve workload drives the daemon over conns client goroutines, each
// with its own connection (nproc if fewer). serve-dense uses one: with
// two, the clients and their handlers saturate a 2-vCPU machine, and a
// run's median observe then depends on how the scheduler happens to
// interleave them (three runs of one seed read 3.96 to 6.24 ms).
type workload struct {
	name       string
	nominalOps int
	window     int // ops per throughput window
	tailPct    int // the percentile op_tail_ms reports
	conns      int // serve workloads: client goroutines and connections
	run        func(cfg config, r *run) error
}

var workloads = []workload{
	{name: "serve-dense", nominalOps: denseEpochs * serveSessions, window: serveSessions, tailPct: 95, conns: 1, run: runServeDense},
	{name: "serve-herd", nominalOps: herdRounds, window: snapshotEvery, tailPct: 97, conns: 2, run: runServeHerd},
	{name: "offline-sim", nominalOps: offlineOps, window: 3, tailPct: 77, run: runOfflineSim},
	// plan-large runs only when named: BENCHMARK.json does not declare it,
	// because on a shared 2-vCPU machine its medians move from run to run
	// by more than the largest bound the benchmark may set (WORKLOADS.md).
	{name: "plan-large", nominalOps: planOps, window: 5, tailPct: 83, run: runPlanLarge},
}

// undeclared lists the workloads BENCHMARK.json leaves out.
var undeclared = map[string]bool{"plan-large": true}

// ops returns the op count for a run of the given length.
func (w workload) ops(seconds int) int {
	n := int(math.Round(float64(w.nominalOps) * float64(seconds) / 10))
	if n < 1 {
		n = 1
	}
	if m := w.window; n%m != 0 {
		n += m - n%m
	}
	return n
}

// run accumulates one benchmark run's outcome.
type run struct {
	cfg config
	w   workload
	dir string  // the run's working directory, removed when it ends
	tr  *tracer // nil unless --trace 1

	attempted, failed int
	failures          []string

	setupSec []float64       // each set-up's wall time
	lat      []float64       // op latencies (ms), in op order
	done     []time.Duration // each op's completion, from the start of the timed phase
	replay   []float64       // each restart's wall time
	gc0, gc  gcStats         // collector counters at the start of the timed phase, and its work to the end of the restarts
	cpu0     cpuStat         // the machine's CPU time at the start of the timed phase

	// layer holds per-layer values that are not span medians: counts,
	// sizes and ratios.
	layer map[string]float64
	info  map[string]any
}

// fail records one failed op with its reason. Failures are never retried.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// traced reports whether op i is recorded with spans. The traced run
// alternates pairs of traced and untraced ops so it can state its own
// overhead; pairs rather than single ops, because plan-large's ops walk
// its epochs forward and back, which ties op parity to epoch content.
func (r *run) traced(i int) bool { return r.tr != nil && (i/2)%2 == 0 }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var cfg config
	var traceFlag int
	selfTest := flag.Bool("self-test", false, "check that a corrupted reference digest and an out-of-sequence delta each fail a run")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal run length; the op count scales with it")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for journals, traces and result files")
	flag.Parse()
	cfg.trace = traceFlag == 1

	// A run that overstays its budget is cut here rather than by whoever
	// is waiting on it.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s, aborting")
		os.Exit(3)
	})

	if *selfTest {
		return runSelfTest(cfg)
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	res, r, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := writeResult(cfg, r, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// execute runs one workload and assembles its result.
func execute(cfg config) (*result, *run, error) {
	var w workload
	for _, c := range workloads {
		if c.name == cfg.workload {
			w = c
		}
	}
	if w.run == nil {
		names := make([]string, len(workloads))
		for i, c := range workloads {
			names[i] = c.name
		}
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	r := &run{cfg: cfg, w: w, dir: dir, layer: make(map[string]float64), info: make(map[string]any)}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := w.run(cfg, r); err != nil {
		return nil, nil, err
	}
	res, err := r.assemble()
	return res, r, err
}

// ops returns this run's op count.
func (r *run) ops() int {
	if r.cfg.opsOverride > 0 {
		return r.cfg.opsOverride
	}
	return r.w.ops(r.cfg.seconds)
}

// beginTimed starts the timed phase for ops ops: garbage left by set-up
// is collected, and the resident high-water mark is reset to the current
// resident set, so peak_rss_mb and the GC counts describe the timed phase
// and what follows it rather than the set-up's throwaway fleets. The
// collected pages stay with the process, as in a long-running one:
// returning them to the OS made the first seconds of the timed phase
// fault them back in, at a cost that varied with the machine's load.
func (r *run) beginTimed(ops int) (time.Time, error) {
	r.lat = make([]float64, ops)
	r.done = make([]time.Duration, ops)
	runtime.GC()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return time.Time{}, fmt.Errorf("resetting the resident high-water mark: %w", err)
	}
	r.gc0 = readGC()
	r.cpu0 = readCPUStat()
	return time.Now(), nil
}

// endMeasured closes the measured part of the run — the timed phase and
// the restarts — over which the GC counts are taken, the same window as
// peak_rss_mb. The traced run's probes come after it.
func (r *run) endMeasured() {
	after := readGC()
	r.gc = gcStats{cycles: after.cycles - r.gc0.cycles, pause: after.pause - r.gc0.pause}
	// The share of the machine's CPU time the hypervisor gave to other
	// guests while this run was measured: a run with a high share read
	// slow because of its neighbours.
	if cpu := readCPUStat(); cpu.total > r.cpu0.total {
		r.info["steal_pct"] = 100 * float64(cpu.steal-r.cpu0.steal) / float64(cpu.total-r.cpu0.total)
	}
}

// throughput is the median over windows of w.window consecutive
// completions of the ops completed per wall second.
func (r *run) throughput() float64 {
	done := append([]time.Duration(nil), r.done...)
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	w := r.w.window
	var rates []float64
	var prev time.Duration
	for k := w; k <= len(done); k += w {
		end := done[k-1]
		rates = append(rates, float64(w)/(end-prev).Seconds())
		prev = end
	}
	return median(rates)
}

// assemble turns the run's samples into the reported metrics.
func (r *run) assemble() (*result, error) {
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric),
	}
	if r.attempted < 1 {
		return nil, fmt.Errorf("%s attempted no ops", r.w.name)
	}
	sup, err := tailSupport(r.lat, r.w.tailPct)
	if err != nil && r.cfg.opsOverride == 0 {
		return nil, fmt.Errorf("%s: refusing the run: %w", r.w.name, err)
	}
	r.info["op_support"] = sup
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if !r.cfg.trace {
		values := map[string]float64{
			"setup_s":     median(r.setupSec),
			"ops_per_s":   r.throughput(),
			"op_p50_ms":   sup.MedianMs,
			"op_tail_ms":  sup.TailMs,
			"peak_rss_mb": rss,
			"replay_s":    median(r.replay),
		}
		for _, m := range endToEnd {
			v := values[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", r.w.name, m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		return res, nil
	}

	// Per-layer metrics: span medians, then the counts and ratios the
	// workload recorded directly.
	var tracedLat, plainLat []float64
	for i, v := range r.lat {
		if r.traced(i) {
			tracedLat = append(tracedLat, v)
		} else {
			plainLat = append(plainLat, v)
		}
	}
	r.layer["trace.overhead_pct"] = 100 * (median(tracedLat)/median(plainLat) - 1)
	r.layer["trace.spans"] = float64(len(r.tr.spans))
	r.layer["runtime.gc_cycles"] = float64(r.gc.cycles)
	r.layer["runtime.gc_pause_ms"] = ms(r.gc.pause)
	for _, pl := range perLayer {
		if pl.span {
			r.layer[pl.name] = r.tr.median(pl.name)
		}
		v, ok := r.layer[pl.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: per-layer metric %s was not measured", r.w.name, pl.name)
		}
		res.Metrics[pl.name] = metric{v, pl.unit}
	}
	return res, nil
}

// metricSpec names one reported metric. A per-layer span metric is the
// median of the samples recorded under its name; the others are set
// directly.
type metricSpec struct {
	name string
	unit string
	span bool
}

// endToEnd lists the metrics of an untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", false},
	{"ops_per_s", "1/s", false},
	{"op_p50_ms", "ms", false},
	{"op_tail_ms", "ms", false},
	{"peak_rss_mb", "MB", false},
	{"replay_s", "s", false},
}

// perLayer lists every per-layer metric; each workload reports all of
// them, measuring the layers off its own path with standalone probes on
// its own inputs (see probes.go).
var perLayer = []metricSpec{
	{"serve.decode_ms", "ms", true},
	{"serve.outside_plan_ms", "ms", true},
	{"serve.observe_wait_ms", "ms", true},
	{"serve.observe_due_ms", "ms", true},
	{"serve.plain_op_ms", "ms", true},
	{"serve.compaction_op_ratio", "x", false},
	{"serve.payload_bytes", "bytes", false},
	{"trace.wire_diff_ms", "ms", true},
	{"trace.wire_apply_ms", "ms", true},
	{"trace.generator_step_ms", "ms", true},
	{"training.plan_epoch_ms", "ms", true},
	{"planner.tracker_update_ms", "ms", true},
	{"planner.solve_warm_ms", "ms", true},
	{"planner.incremental_solves", "count", false},
	{"planner.full_solves", "count", false},
	{"planner.migrations", "count", false},
	{"planner.replans", "count", false},
	{"journal.append_ms", "ms", true},
	{"journal.sync_ms", "ms", true},
	{"journal.read_ms", "ms", true},
	{"journal.bytes_per_op", "bytes", false},
	{"journal.compactions", "count", false},
	{"executor.iteration_ms", "ms", true},
	{"forecast.observe_us", "us", true},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"trace.overhead_pct", "%", false},
	{"trace.spans", "count", false},
}

// writeResult stores the full result — metrics, support, fingerprint,
// failures — next to the spans, so a result can be traced back to the
// machine and samples behind it. The summary also goes to stdout ahead of
// the result line.
func writeResult(cfg config, r *run, res *result) error {
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-untraced", cfg.workload, cfg.seed)
	if cfg.trace {
		name = fmt.Sprintf("%s-seed%d-traced", cfg.workload, cfg.seed)
	}
	full := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"ops":         r.ops(),
		"fingerprint": machineFingerprint(),
		"result":      res,
		"info":        r.info,
		"failures":    r.failures,
	}
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), b, 0o644); err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(dir, name+".spans.json")); err != nil {
			return err
		}
	}
	fp, _ := json.Marshal(full["fingerprint"])
	info, _ := json.Marshal(r.info)
	fmt.Printf("fingerprint: %s\n", fp)
	fmt.Printf("support: %s\n", info)
	return nil
}

// clients is the number of client goroutines, and of HTTP connections,
// a serve workload drives the daemon with: its conns, or nproc if
// smaller.
func (w workload) clients() int {
	n := runtime.NumCPU()
	if n > w.conns {
		n = w.conns
	}
	return n
}
