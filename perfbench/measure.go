package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// minBeyond is the number of samples a tail percentile must leave above
// it before the benchmark reports it: fewer and the "tail" is a handful
// of outliers, so the run is refused instead of quietly reporting a
// lower percentile.
const minBeyond = 10

// support describes the samples behind one timing: its median, the tail
// percentile reported, the sample count and how many samples lie beyond
// the tail.
type support struct {
	Samples    int     `json:"samples"`
	MedianMs   float64 `json:"median_ms"`
	TailPct    int     `json:"tail_pct"`
	TailMs     float64 `json:"tail_ms"`
	BeyondTail int     `json:"beyond_tail"`
}

// percentile is the nearest-rank percentile of sorted: the smallest
// sample with at least p% of the samples at or below it, and the number
// of samples strictly after that rank.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], n - k
}

// median returns the middle of xs (the mean of the two middle samples
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSupport summarizes op latencies (ms) at the workload's declared
// tail percentile, refusing the run when fewer than minBeyond samples lie
// beyond it.
func tailSupport(lat []float64, tailPct int) (support, error) {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	tail, beyond := percentile(s, float64(tailPct))
	sup := support{Samples: len(s), MedianMs: median(s), TailPct: tailPct, TailMs: tail, BeyondTail: beyond}
	if beyond < minBeyond {
		return sup, fmt.Errorf("p%d of %d samples has %d beyond it, need at least %d: run more ops", tailPct, len(s), beyond, minBeyond)
	}
	return sup, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one traced interval: a call into a layer made from the
// benchmark. Op groups the spans of one op; Parent is the span that
// caused it (0 for an op's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends. A nil *tracer records nothing, which is how the
// untraced run keeps its timed path free of tracing work.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	samples map[string][]float64 // span name -> durations in ms
	next    int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: make(map[string][]float64)}
}

// newID reserves a span id, for a span that ends after the spans it
// causes have been recorded.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record adds a finished span under id (0 allocates one) and returns
// the id.
func (t *tracer) record(id int64, name string, op, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.samples[name] = append(t.samples[name], ms(end.Sub(start)))
	return id
}

// time runs fn inside a standalone span.
func (t *tracer) time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.record(0, name, 0, 0, start, time.Now())
	return err
}

// sample records a duration measured elsewhere (such as a solve time the
// daemon reports) under name without a span.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[name] = append(t.samples[name], v)
}

// median returns the median sample recorded under name.
func (t *tracer) median(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.samples[name])
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// gcStats is a snapshot of the collector's counters.
type gcStats struct {
	cycles uint32
	pause  time.Duration
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{cycles: m.NumGC, pause: time.Duration(m.PauseTotalNs)}
}

// cpuStat is the machine's cumulative CPU time from /proc/stat, in
// clock ticks: all of it, and the part stolen by the hypervisor. Zero
// where /proc/stat cannot be read.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal [guest guest_nice],
	// the guest times already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// fingerprint identifies the machine a result was measured on.
type fingerprint struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	return fp
}
