package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"laermoe/internal/model"
	"laermoe/internal/serve"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
	"laermoe/internal/training"
	sessionspec "laermoe/session"
)

const (
	serveSessions = 64
	// serveStreams distinct jobs make up the fleet, serveSessions /
	// serveStreams sessions each. A run averages over their inputs — how
	// many layers keep their initial layout, for instance, varies with the
	// stream — so one seed's draw moves the fleet's cost less.
	serveStreams = 8
	serveModel   = "mixtral-8x7b-e8k2"
	serveTokens  = 2048
	serveIters   = 4
	// snapshotEvery is the daemon's default compaction cadence; the herd
	// runs whole cycles of it so every run compacts the same share of
	// rounds.
	snapshotEvery = 16

	// denseEpochs is the number of timed epochs each session posts in a
	// 10-second serve-dense run (64 observes per epoch). Before them every
	// session posts denseWarmEpochs epochs untimed: the first epochs after
	// epoch 0 replan most layers from the initial layout and run a third
	// slower than the rest, by an amount that varies with the seed.
	// serve-dense compacts once, on the first epoch after the timed phase
	// (its SnapshotEvery is the epochs before it plus two), so no timed op
	// pays a compaction's fsyncs — on a shared disk those set the dense
	// tail — and then posts denseReplayEpochs more dense epochs, untimed:
	// the records a restart replays after restoring the checkpoint, so
	// each restart decodes and re-plans a bounded tail of dense records.
	denseEpochs       = 48
	denseWarmEpochs   = 4
	denseReplayEpochs = 4
	// herdRounds is the number of timed fleet epochs of a 10-second
	// serve-herd run: 28 snapshot cycles.
	herdRounds = 28 * snapshotEvery

	// setupRepeats is how many times a run sets up, and replayRepeats how
	// many restarts it times; each reports the median.
	setupRepeats  = 5
	replayRepeats = 5
)

// serveSpec is the session every fleet member opens.
func serveSpec(seed int64) serve.SessionSpec {
	return serve.SessionSpec{Spec: sessionspec.Spec{
		Model:                serveModel,
		Policy:               string(training.ReplanWarm),
		IterationsPerEpoch:   serveIters,
		ForceTokensPerDevice: serveTokens,
		Seed:                 seed,
	}}
}

// refPlanner builds the in-process planner a serve session runs, from
// the same spec with the daemon's defaults (4x8 cluster, warm policy, no
// relocation charge).
func refPlanner(seed int64, parallelism int) (*training.OnlinePlanner, error) {
	arch, err := model.ByName(serveModel)
	if err != nil {
		return nil, err
	}
	return training.NewOnlinePlanner(training.OnlineConfig{
		Policy:               training.ReplanWarm,
		Workload:             training.WorkloadTraining,
		Arch:                 arch,
		Topo:                 topology.New(4, 8),
		IterationsPerEpoch:   serveIters,
		ForceTokensPerDevice: serveTokens,
		Parallelism:          parallelism,
		Seed:                 seed,
	})
}

// decision is the reproducible part of one epoch's decision: the bytes
// the daemon must return identically to an in-process planner fed the
// same stream. Solve counters and timings are telemetry, not decision.
type decision struct {
	Boundary    []training.LayerDecision `json:"boundary"`
	Observation []training.LayerDecision `json:"observation"`
	Summary     training.EpochSummary    `json:"summary"`
}

func (d decision) digest() ([sha256.Size]byte, error) {
	d.Summary.IncrementalSolves, d.Summary.FullSolves = 0, 0
	b, err := json.Marshal(d)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// planEpoch runs one epoch through a planner and returns its decision.
func planEpoch(p *training.OnlinePlanner, routing []*trace.RoutingMatrix) (decision, error) {
	b, o, err := p.PlanEpoch(routing)
	if err != nil {
		return decision{}, err
	}
	return decision{Boundary: b, Observation: o, Summary: p.Summarize()}, nil
}

// stream is one job's inputs to a serve workload: the bodies posted each
// epoch and the reference decision digests. The routing and reference
// decisions themselves are kept only for the traced run's probes, so the
// timed phase's memory is mostly the daemon's.
type stream struct {
	seed    int64    // the sessions' spec seed and the generator's
	dense   [][]byte // dense ObserveRequest per epoch (epoch 0 only for a converged stream)
	delta   [][]byte // routing_delta ObserveRequest per epoch (nil for epoch 0)
	digests [][sha256.Size]byte

	rows [][][][]int // epoch -> layer -> device -> expert, when kept
	refs []decision  // reference decisions, when kept

	topK, tokens int
	params       plannerParams
}

// newStream generates epochs 0..last. A drifting stream applies the
// migration drift model between epochs; a converged one moves two tokens
// per layer per epoch. The reference planner runs over the whole stream
// here, before any clock starts.
func newStream(seed int64, last int, converged, keep bool) (*stream, error) {
	ref, err := refPlanner(seed, 0)
	if err != nil {
		return nil, err
	}
	arch, _ := model.ByName(serveModel)
	st := &stream{
		seed: seed, topK: arch.TopK, tokens: ref.Setup().TokensPerDev,
		params: plannerParams{topo: ref.Topo(), capacity: arch.ExpertCapacity, params: ref.Setup().Params},
	}
	gen, err := training.ObservationGenerator(trace.GeneratorConfig{
		Devices: ref.Devices(), Experts: ref.Experts(), Layers: ref.Layers(),
		TokensPerDevice: st.tokens, TopK: st.topK, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var prev [][][]int
	for e := 0; e <= last; e++ {
		var rows [][][]int
		switch {
		case e == 0 || !converged:
			if e > 0 {
				if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration}); err != nil {
					return nil, err
				}
			}
			rows = copyRows(matrixRows(gen.Step()))
		default:
			rows = copyRows(prev)
			moveTokens(rows, rng, 2)
		}
		var body []byte
		if e == 0 || !converged {
			if body, err = json.Marshal(serve.ObserveRequest{Routing: rows}); err != nil {
				return nil, err
			}
		}
		st.dense = append(st.dense, body)
		body = nil
		if e > 0 {
			deltas := make([]*trace.WireDelta, len(rows))
			for l := range rows {
				deltas[l] = trace.WireDiff(toMatrix(prev[l]), rows[l])
			}
			if body, err = json.Marshal(serve.ObserveRequest{Epoch: e, RoutingDelta: deltas}); err != nil {
				return nil, err
			}
		}
		st.delta = append(st.delta, body)
		d, err := planEpoch(ref, toMatrices(rows))
		if err != nil {
			return nil, fmt.Errorf("reference planner epoch %d: %w", e, err)
		}
		dg, err := d.digest()
		if err != nil {
			return nil, err
		}
		st.digests = append(st.digests, dg)
		if keep {
			st.rows = append(st.rows, rows)
			st.refs = append(st.refs, d)
		}
		prev = rows
	}
	return st, nil
}

// moveTokens applies a converged fleet's epoch-to-epoch movement: n
// token-conserving moves per layer, each taking one token of one expert
// from one device to another.
func moveTokens(rows [][][]int, rng *rand.Rand, n int) {
	for _, layer := range rows {
		devices, experts := len(layer), len(layer[0])
		for moved := 0; moved < n; {
			d, x := rng.Intn(devices), rng.Intn(experts)
			if layer[d][x] == 0 {
				continue
			}
			d2 := (d + 1 + rng.Intn(devices-1)) % devices
			layer[d][x]--
			layer[d2][x]++
			moved++
		}
	}
}

func matrixRows(ms []*trace.RoutingMatrix) [][][]int {
	out := make([][][]int, len(ms))
	for l, m := range ms {
		out[l] = m.R
	}
	return out
}

func copyRows(obs [][][]int) [][][]int {
	out := make([][][]int, len(obs))
	for l, rows := range obs {
		out[l] = make([][]int, len(rows))
		for d, row := range rows {
			out[l][d] = append([]int(nil), row...)
		}
	}
	return out
}

func toMatrix(rows [][]int) *trace.RoutingMatrix {
	m := trace.NewRoutingMatrix(len(rows), len(rows[0]))
	for d, row := range rows {
		copy(m.R[d], row)
	}
	return m
}

func toMatrices(rows [][][]int) []*trace.RoutingMatrix {
	out := make([]*trace.RoutingMatrix, len(rows))
	for l, r := range rows {
		out[l] = toMatrix(r)
	}
	return out
}

// fleet is a journaled in-process daemon with its open sessions.
type fleet struct {
	dir    string
	srv    *serve.Server
	base   string
	client *http.Client
	ids    []string
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
}

// post sends one body and returns the status and response bytes.
func (f *fleet) post(path string, body []byte) (int, []byte, error) {
	resp, err := f.client.Post(f.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// setUpFleet boots a journaled daemon in dir, opens the sessions and posts
// every session's epoch-0 observation dense — what a user pays before the
// first timed op. Any failure here is fatal to the run.
func setUpFleet(dir string, streams []*stream, snapEvery, conns int) (*fleet, error) {
	srv, err := serve.New(serve.Options{
		Addr:          "127.0.0.1:0",
		MaxSessions:   serveSessions,
		JournalDir:    dir,
		SnapshotEvery: snapEvery,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, srv: srv, base: "http://" + srv.Addr(), client: newClient(conns), ids: make([]string, serveSessions)}
	err = forClients(conns, serveSessions, func(s int) error {
		st := streams[s%len(streams)]
		spec, err := json.Marshal(serveSpec(st.seed))
		if err != nil {
			return err
		}
		code, data, err := f.post("/v1/sessions", spec)
		if err != nil {
			return err
		}
		if code != http.StatusCreated {
			return fmt.Errorf("opening session: status %d: %s", code, data)
		}
		var info serve.SessionInfo
		if err := json.Unmarshal(data, &info); err != nil {
			return err
		}
		f.ids[s] = info.ID
		code, data, err = f.post("/v1/sessions/"+info.ID+"/observe", st.dense[0])
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("epoch 0 observe: status %d: %s", code, data)
		}
		return checkDecision(data, 0, st.digests[0], nil)
	})
	if err != nil {
		_ = f.stop() // the set-up failure is the error to report
		return nil, fmt.Errorf("setting up fleet: %w", err)
	}
	return f, nil
}

// forClients runs fn(0..n-1) on c goroutines, each owning a fixed share
// of the indices, and returns the first error.
func forClients(c, n int, fn func(i int) error) error {
	errs := make([]error, c)
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += c {
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f.client.CloseIdleConnections()
	return f.srv.Shutdown(ctx)
}

// observeResponse is the part of an ObserveResponse the benchmark reads.
type observeResponse struct {
	Epoch int `json:"epoch"`
	decision
	SolveSeconds float64 `json:"solve_seconds"`
}

// checkDecision verifies one observe response against the reference
// digest of its epoch. resp receives the decoded response when non-nil.
func checkDecision(data []byte, epoch int, want [sha256.Size]byte, resp *observeResponse) error {
	var got observeResponse
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("decoding decision: %w", err)
	}
	if got.Epoch != epoch {
		return fmt.Errorf("decision for epoch %d, want %d", got.Epoch, epoch)
	}
	dg, err := got.decision.digest()
	if err != nil {
		return err
	}
	if dg != want {
		return fmt.Errorf("epoch %d decision differs from the reference planner", epoch)
	}
	if resp != nil {
		*resp = got
	}
	return nil
}

// serveRun is the state shared by both serve workloads.
type serveRun struct {
	r         *run
	streams   []*stream // session s posts streams[s%serveStreams]
	f         *fleet
	snapEvery int // the daemon's SnapshotEvery
}

// setUpServe generates the fleet's streams (epochs 0..last) with their
// references, then sets the fleet up setupRepeats times (all but the last
// torn down), timing each.
func setUpServe(cfg config, r *run, last int, converged bool, snapEvery int) (*serveRun, error) {
	sr := &serveRun{r: r, snapEvery: snapEvery}
	for j := 0; j < serveStreams; j++ {
		st, err := newStream(cfg.seed*serveStreams+int64(j), last, converged, r.tr != nil && j == 0)
		if err != nil {
			return nil, err
		}
		sr.streams = append(sr.streams, st)
	}
	if cfg.inject == injectDigest {
		sr.streams[0].digests[1][0] ^= 0xff
	}
	for i := 0; i < setupRepeats; i++ {
		dir := fmt.Sprintf("%s/journal-%d", r.dir, i)
		// The references' garbage, and the torn-down fleet's, is
		// collected off the clock, so each set-up starts from a heap like
		// a fresh process's.
		runtime.GC()
		start := time.Now()
		f, err := setUpFleet(dir, sr.streams, snapEvery, r.w.clients())
		if err != nil {
			return nil, err
		}
		r.setupSec = append(r.setupSec, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			if err := f.stop(); err != nil {
				return nil, err
			}
			continue
		}
		sr.f = f
	}
	r.info["clients"] = r.w.clients()
	r.info["sessions"] = serveSessions
	return sr, nil
}

// finish scrapes the daemon's counters, stops it, times the journal
// replay restarts — each must bring every session back after its last
// epoch — and, in the traced run, probes the layers.
func (sr *serveRun) finish(last int, deltaKind bool) error {
	r := sr.r
	if r.tr != nil {
		if err := sr.f.scrapeMetrics(daemonCounts, r.layer); err != nil {
			return err
		}
	}
	if err := sr.f.stop(); err != nil {
		return fmt.Errorf("draining daemon: %w", err)
	}
	for i := 0; i < replayRepeats; i++ {
		r.attempted++
		runtime.GC() // like a set-up, each restart starts from a collected heap
		start := time.Now()
		srv, err := serve.New(serve.Options{Addr: "127.0.0.1:0", MaxSessions: serveSessions, JournalDir: sr.f.dir, SnapshotEvery: sr.snapEvery})
		if err != nil {
			return fmt.Errorf("replay restart: %w", err)
		}
		r.replay = append(r.replay, time.Since(start).Seconds())
		restored, err := restoredSessions(srv, last+1)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		serr := srv.Shutdown(ctx)
		cancel()
		if serr != nil {
			return fmt.Errorf("draining replayed daemon: %w", serr)
		}
		if err != nil {
			r.fail("replay %d: %v", i, err)
		} else if restored != serveSessions {
			r.fail("replay %d restored %d of %d sessions", i, restored, serveSessions)
		}
	}
	r.endMeasured()
	if r.tr == nil {
		return nil
	}
	st := sr.streams[0]
	bodies := st.dense
	if deltaKind {
		bodies = st.delta
	}
	return probeLayers(r, &probeInput{
		params:     st.params,
		rows:       st.rows,
		bodies:     bodies[1:],
		refs:       st.refs,
		deltaKind:  deltaKind,
		journalDir: sr.f.dir,
		topK:       st.topK,
		tokens:     st.tokens,
		seed:       st.seed,
	})
}

// restoredSessions lists a replayed daemon's sessions and checks each is
// back at the expected epoch.
func restoredSessions(srv *serve.Server, wantEpochs int) (int, error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions", nil))
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("listing sessions: status %d", rec.Code)
	}
	var list struct {
		Sessions []serve.SessionInfo `json:"sessions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		return 0, err
	}
	for _, info := range list.Sessions {
		if info.Epochs != wantEpochs {
			return 0, fmt.Errorf("session %s restored at epoch %d, want %d", info.ID, info.Epochs, wantEpochs)
		}
	}
	return len(list.Sessions), nil
}

// daemonCounts maps the daemon's /metrics counters to the per-layer
// counts a serve workload reports.
var daemonCounts = map[string]string{
	"laer_serve_incremental_solves_total":    "planner.incremental_solves",
	"laer_serve_full_solves_total":           "planner.full_solves",
	"laer_serve_migrations_total":            "planner.migrations",
	"laer_serve_replans_total":               "planner.replans",
	"laer_serve_journal_compactions_total":   "journal.compactions",
	"laer_serve_observe_payload_bytes_total": "serve.payload_bytes",
}

// scrapeMetrics reads the counters named in counts (metric name to
// per-layer name) from the daemon's /metrics into layer.
func (f *fleet) scrapeMetrics(counts map[string]string, layer map[string]float64) error {
	resp, err := f.client.Get(f.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	want := make(map[string]string, len(counts))
	for k, v := range counts {
		want[k] = v
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if key, ok := want[name]; ok {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("metric %s: %w", name, err)
			}
			layer[key] = v
			delete(want, name)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for name := range want {
		return fmt.Errorf("/metrics has no %s", name)
	}
	return nil
}

// runServeDense: the clients run a closed loop over the 64 sessions,
// each owning a share of them; one op is one dense observe. Untimed
// warm-up epochs come first; after the timed phase the fleet compacts and
// posts the epochs its restarts replay.
func runServeDense(cfg config, r *run) error {
	epochs := r.ops() / serveSessions
	first := 1 + denseWarmEpochs // the first timed epoch
	last := first + epochs + denseReplayEpochs
	sr, err := setUpServe(cfg, r, last, false, first+epochs+1)
	if err != nil {
		return err
	}
	f := sr.f
	c := r.w.clients()
	// Untimed epochs' decisions are checked like the timed ones; their
	// failures are counted, not returned.
	untimed := func(e int) {
		var mu sync.Mutex
		_ = forClients(c, serveSessions, func(s int) error {
			st := sr.streams[s%serveStreams]
			code, data, err := f.post("/v1/sessions/"+f.ids[s]+"/observe", st.dense[e])
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(data))
			}
			if err == nil {
				err = checkDecision(data, e, st.digests[e], nil)
			}
			mu.Lock()
			defer mu.Unlock()
			r.attempted++
			if err != nil {
				r.fail("epoch %d session %s: %v", e, f.ids[s], err)
			}
			return nil
		})
	}
	for e := 1; e < first; e++ {
		untimed(e)
	}
	n := epochs * serveSessions
	resps := make([][]byte, n)
	codes := make([]int, n)
	errs := make([]error, n)
	waits := make([]float64, n)
	start, err := r.beginTimed(n)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// In a closed loop each observe is due when the client's
			// previous one returns.
			due := start
			for e := first; e < first+epochs; e++ {
				for s := w; s < serveSessions; s += c {
					i := (e-first)*serveSessions + s
					t0 := time.Now()
					codes[i], resps[i], errs[i] = f.post("/v1/sessions/"+f.ids[s]+"/observe", sr.streams[s%serveStreams].dense[e])
					t1 := time.Now()
					r.lat[i], r.done[i] = ms(t1.Sub(t0)), t1.Sub(start)
					waits[i] = ms(t0.Sub(due))
					due = t1
					if r.traced(i) {
						r.tr.record(0, "serve.observe", int64(i)+1, 0, t0, t1)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var plain []float64
	for i := range r.lat {
		e := i/serveSessions + first
		r.attempted++
		var resp observeResponse
		switch {
		case errs[i] != nil:
			r.fail("op %d: %v", i, errs[i])
			continue
		case codes[i] != http.StatusOK:
			r.fail("op %d: status %d: %s", i, codes[i], resps[i])
			continue
		}
		if err := checkDecision(resps[i], e, sr.streams[i%serveSessions%serveStreams].digests[e], &resp); err != nil {
			r.fail("op %d session %s: %v", i, f.ids[i%serveSessions], err)
			continue
		}
		plain = append(plain, r.lat[i])
		if r.tr != nil {
			r.tr.sample("training.plan_epoch_ms", 1e3*resp.SolveSeconds)
			r.tr.sample("serve.outside_plan_ms", r.lat[i]-1e3*resp.SolveSeconds)
			r.tr.sample("serve.observe_wait_ms", waits[i])
			r.tr.sample("serve.observe_due_ms", waits[i]+r.lat[i])
		}
	}
	r.opSplit(nil, plain)

	// Untimed: the epoch after the timed ones compacts every session's
	// journal, and the epochs after it are what each restart replays.
	for e := first + epochs; e <= last; e++ {
		untimed(e)
	}
	return sr.finish(last, false)
}

// opSplit records the compaction-versus-plain op comparison; without
// compaction every op is plain and the ratio is 1.
func (r *run) opSplit(compact, plain []float64) {
	if r.tr == nil {
		return
	}
	for _, v := range plain {
		r.tr.sample("serve.plain_op_ms", v)
	}
	r.layer["serve.compaction_op_ratio"] = 1
	if len(compact) > 0 {
		r.layer["serve.compaction_op_ratio"] = median(compact) / median(plain)
	}
}

// runServeHerd: the converged fleet on the delta wire. One op is one
// fleet epoch: all 64 observes are due at once and drain over the client
// connections; the op ends when the last decision returns.
func runServeHerd(cfg config, r *run) error {
	rounds := r.ops()
	sr, err := setUpServe(cfg, r, rounds, true, snapshotEvery)
	if err != nil {
		return err
	}
	f := sr.f
	c := r.w.clients()
	type obs struct {
		sent, done time.Duration
		code       int
		data       []byte
		err        error
	}
	results := make([][]obs, rounds)
	start, err := r.beginTimed(rounds)
	if err != nil {
		return err
	}
	for k := 0; k < rounds; k++ {
		e := k + 1
		round := make([]obs, serveSessions)
		var next atomic.Int64
		var wg sync.WaitGroup
		var roundID int64
		if r.traced(k) {
			roundID = r.tr.newID()
		}
		due := time.Now()
		for w := 0; w < c; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					s := int(next.Add(1) - 1)
					if s >= serveSessions {
						return
					}
					st := sr.streams[s%serveStreams]
					body := st.delta[e]
					if cfg.inject == injectSequence && s == 0 && k == 1 && e+1 < len(st.delta) {
						body = st.delta[e+1]
					}
					o := &round[s]
					t0 := time.Now()
					o.sent = t0.Sub(due)
					o.code, o.data, o.err = f.post("/v1/sessions/"+f.ids[s]+"/observe", body)
					t1 := time.Now()
					o.done = t1.Sub(due)
					if r.traced(k) {
						r.tr.record(0, "serve.observe", int64(k)+1, roundID, t0, t1)
					}
				}
			}()
		}
		wg.Wait()
		end := time.Now()
		r.lat[k], r.done[k] = ms(end.Sub(due)), end.Sub(start)
		if r.traced(k) {
			r.tr.record(roundID, "serve.round", int64(k)+1, 0, due, end)
		}
		results[k] = round
	}

	var compact, plain []float64
	for k, round := range results {
		e := k + 1
		r.attempted++
		bad := 0
		for s, o := range round {
			var resp observeResponse
			var err error
			switch {
			case o.err != nil:
				err = o.err
			case o.code != http.StatusOK:
				err = fmt.Errorf("status %d: %s", o.code, bytes.TrimSpace(o.data))
			default:
				err = checkDecision(o.data, e, sr.streams[s%serveStreams].digests[e], &resp)
			}
			if err != nil {
				if bad == 0 {
					r.fail("round %d session %s: %v", k, f.ids[s], err)
				}
				bad++
				continue
			}
			if r.tr != nil {
				r.tr.sample("training.plan_epoch_ms", 1e3*resp.SolveSeconds)
				r.tr.sample("serve.outside_plan_ms", ms(o.done-o.sent)-1e3*resp.SolveSeconds)
				r.tr.sample("serve.observe_wait_ms", ms(o.sent))
				r.tr.sample("serve.observe_due_ms", ms(o.done))
			}
		}
		if bad > 0 {
			continue
		}
		if (e+1)%snapshotEvery == 0 {
			compact = append(compact, r.lat[k])
		} else {
			plain = append(plain, r.lat[k])
		}
	}
	r.opSplit(compact, plain)
	return sr.finish(rounds, true)
}
