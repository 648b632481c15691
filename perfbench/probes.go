package main

// Per-layer probes for the traced run. Spans are recorded only here in
// the benchmark, around calls into each layer, fed the workload's own
// inputs: the routing epochs it plans on, the bodies it posts and the
// decisions its reference planner produced. A layer the workload's ops
// do not reach is still probed on those inputs, so every per-layer metric
// is a measured number on every workload.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"laermoe"
	"laermoe/internal/forecast"
	"laermoe/internal/journal"
	"laermoe/internal/planner"
	"laermoe/internal/serve"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
	"laermoe/internal/training"
)

// plannerParams is what a standalone solver needs to score layouts the
// way the workload's planner does.
type plannerParams struct {
	topo     *topology.Topology
	capacity int
	params   planner.CostParams
}

// probeInput is one workload's inputs as the probes consume them.
type probeInput struct {
	params plannerParams
	rows   [][][][]int // routing epochs, epoch 0 first
	// bodies are the observe bodies posted for epochs 1.. (nil: dense
	// bodies are marshaled from rows).
	bodies [][]byte
	// refs are the reference decisions of each epoch, journaled next to
	// the observations.
	refs []decision
	// deltaKind journals observations as routing deltas (the herd's wire
	// form) instead of dense routing.
	deltaKind bool
	// journalDir holds the run's own journals, read back by the journal
	// probe (empty: read the probe's journal).
	journalDir string

	topK, tokens int
	seed         int64
}

// observeRecord and deltaRecord mirror the daemon's journal payloads.
type observeRecord struct {
	Routing [][][]int `json:"routing"`
}

type deltaRecord struct {
	Epoch  int                `json:"epoch"`
	Deltas []*trace.WireDelta `json:"deltas"`
}

// probeLayers runs every standalone layer probe.
func probeLayers(r *run, in *probeInput) error {
	steps := []func(*run, *probeInput) error{
		probeDecode, probeWire, probePlanner, probeForecast,
		probeGenerator, probeExecutor, probeJournal,
	}
	for _, step := range steps {
		if err := step(r, in); err != nil {
			return err
		}
	}
	return nil
}

// probeDecode decodes each posted body into serve.ObserveRequest, the
// daemon's first step on an observe.
func probeDecode(r *run, in *probeInput) error {
	for e := 1; e < len(in.rows); e++ {
		var body []byte
		if in.bodies != nil {
			body = in.bodies[e-1]
		} else {
			b, err := json.Marshal(serve.ObserveRequest{Routing: in.rows[e]})
			if err != nil {
				return err
			}
			body = b
		}
		var req serve.ObserveRequest
		if err := r.tr.time("serve.decode_ms", func() error { return json.Unmarshal(body, &req) }); err != nil {
			return fmt.Errorf("decode probe: %w", err)
		}
	}
	return nil
}

// probeWire diffs each epoch against the previous one into wire deltas,
// then validates, checks and applies them onto a copy of the previous
// epoch, verifying the result.
func probeWire(r *run, in *probeInput) error {
	for e := 1; e < len(in.rows); e++ {
		prev := toMatrices(in.rows[e-1])
		deltas := make([]*trace.WireDelta, len(prev))
		_ = r.tr.time("trace.wire_diff_ms", func() error { // diffing cannot fail
			for l, m := range prev {
				deltas[l] = trace.WireDiff(m, in.rows[e][l])
			}
			return nil
		})
		err := r.tr.time("trace.wire_apply_ms", func() error {
			for l, d := range deltas {
				if err := d.Validate(prev[l].N, prev[l].E); err != nil {
					return err
				}
				if err := d.Check(prev[l]); err != nil {
					return err
				}
				d.Apply(prev[l])
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("wire probe epoch %d: %w", e, err)
		}
		for l, m := range prev {
			for d, row := range m.R {
				for x, v := range row {
					if v != in.rows[e][l][d][x] {
						return fmt.Errorf("wire probe epoch %d: applied delta differs at layer %d", e, l)
					}
				}
			}
		}
	}
	return nil
}

// probePlanner feeds the epochs to a standalone drift tracker per layer
// (bound once to the epoch-0 layout, so every update folds a full diff)
// and to a standalone warm-start solver per layer (re-scoring the whole
// layer each epoch, the path a replan takes).
func probePlanner(r *run, in *probeInput) error {
	p := in.params
	layers := len(in.rows[0])
	solvers := make([]*planner.Solver, layers)
	layouts := make([]*planner.Layout, layers)
	loads := make([][]float64, layers)
	trackers := make([]*planner.DriftTracker, layers)
	first := toMatrices(in.rows[0])
	for l := range solvers {
		opts := planner.DefaultSolverOptions()
		opts.Seed = in.seed + int64(l) + 1
		solvers[l] = planner.NewSolver(p.topo, p.capacity, p.params, opts)
		sol, err := solvers[l].Solve(first[l])
		if err != nil {
			return fmt.Errorf("planner probe: %w", err)
		}
		layouts[l], loads[l] = sol.Layout, first[l].ExpertLoads()
		trackers[l] = planner.NewDriftTracker(p.topo)
		if err := trackers[l].Rebase(first[l], sol.Layout, loads[l], 0); err != nil {
			return fmt.Errorf("planner probe: %w", err)
		}
	}
	for e := 1; e < len(in.rows); e++ {
		routing := toMatrices(in.rows[e])
		err := r.tr.time("planner.tracker_update_ms", func() error {
			for l, m := range routing {
				if _, err := trackers[l].Update(m); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("planner probe: %w", err)
		}
		err = r.tr.time("planner.solve_warm_ms", func() error {
			for l, m := range routing {
				sol, err := solvers[l].SolveWarm(m, planner.WarmStart{Prev: layouts[l], PrevLoads: loads[l]})
				if err != nil {
					return err
				}
				if sol.Layout != layouts[l] {
					layouts[l], loads[l] = sol.Layout, m.ExpertLoads()
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("planner probe: %w", err)
		}
	}
	return nil
}

// probeForecast feeds each layer's per-expert loads to the predictive
// policy's default forecaster.
func probeForecast(r *run, in *probeInput) error {
	layers := len(in.rows[0])
	preds := make([]forecast.Predictor, layers)
	for l := range preds {
		p, err := forecast.New(forecast.KindTrend, len(in.rows[0][l][0]))
		if err != nil {
			return err
		}
		preds[l] = p
	}
	for _, rows := range in.rows {
		for l, m := range toMatrices(rows) {
			loads := m.ExpertLoads()
			start := time.Now()
			preds[l].Observe(loads)
			end := time.Now()
			r.tr.record(0, "forecast.observe", 0, 0, start, end)
			r.tr.sample("forecast.observe_us", 1e3*ms(end.Sub(start)))
		}
	}
	return nil
}

// probeGenerator steps a trace generator of the workload's shape.
func probeGenerator(r *run, in *probeInput) error {
	first := in.rows[0]
	gen, err := training.ObservationGenerator(trace.GeneratorConfig{
		Devices: len(first[0]), Experts: len(first[0][0]), Layers: len(first),
		TokensPerDevice: in.tokens, TopK: in.topK, Seed: in.seed,
	})
	if err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		_ = r.tr.time("trace.generator_step_ms", func() error { gen.Step(); return nil }) // stepping cannot fail
	}
	return nil
}

// executorIters is the iteration count of one executor probe call.
const executorIters = 4

// probeExecutor simulates training iterations of the default model on the
// default cluster, the executor/sim/comm stack offline-sim runs.
func probeExecutor(r *run, in *probeInput) error {
	for i := 0; i < 3; i++ {
		start := time.Now()
		_, err := laermoe.Simulate(laermoe.SimOptions{
			System: laermoe.SystemLAER, Model: serveModel,
			Iterations: executorIters, Warmup: 1, Seed: in.seed,
		})
		if err != nil {
			return fmt.Errorf("executor probe: %w", err)
		}
		end := time.Now()
		r.tr.record(0, "executor.simulate", 0, 0, start, end)
		r.tr.sample("executor.iteration_ms", ms(end.Sub(start))/executorIters)
	}
	return nil
}

// probeJournal appends each epoch's observation and decision records to a
// standalone journal and syncs it after each epoch: journal.sync_ms is
// the fsync of one epoch's records. (The daemon group-commits instead,
// syncing whatever its sessions appended once per FsyncInterval.)
func probeJournal(r *run, in *probeInput) error {
	dir := filepath.Join(r.dir, "probe-journal")
	st, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	w, err := st.Create("probe")
	if err != nil {
		return err
	}
	epochs := 0
	for e := 1; e < len(in.rows); e++ {
		kind, obs := journal.KindObserve, any(observeRecord{Routing: in.rows[e]})
		if in.deltaKind {
			deltas := make([]*trace.WireDelta, len(in.rows[e]))
			for l := range deltas {
				deltas[l] = trace.WireDiff(toMatrix(in.rows[e-1][l]), in.rows[e][l])
			}
			kind, obs = journal.KindObserveDelta, deltaRecord{Epoch: e, Deltas: deltas}
		}
		dec := in.refs[e]
		dec.Summary.IncrementalSolves, dec.Summary.FullSolves = 0, 0
		err := r.tr.time("journal.append_ms", func() error {
			if err := w.Append(kind, obs); err != nil {
				return err
			}
			return w.Append(journal.KindDecision, struct {
				Epoch int `json:"epoch"`
				decision
			}{e, dec})
		})
		if err != nil {
			return fmt.Errorf("journal probe: %w", err)
		}
		if err := r.tr.time("journal.sync_ms", w.Sync); err != nil {
			return fmt.Errorf("journal probe: %w", err)
		}
		epochs++
	}
	fi, err := os.Stat(filepath.Join(dir, "probe.jnl"))
	if err != nil {
		return err
	}
	r.layer["journal.bytes_per_op"] = float64(fi.Size()) / float64(epochs)
	if err := st.Close(); err != nil {
		return err
	}
	// A serve workload reads back its daemon's journals; the others, the
	// one written here.
	if in.journalDir != "" {
		dir = in.journalDir
	}
	return probeJournalRead(r, dir)
}

// probeJournalRead reads every journal in dir back, as a restart does
// before replaying it.
func probeJournalRead(r *run, dir string) error {
	st, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	ids, err := st.List()
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return fmt.Errorf("no journals in %s", dir)
	}
	for i := 0; i < 3; i++ {
		err := r.tr.time("journal.read_ms", func() error {
			for _, id := range ids {
				recs, err := st.Read(id)
				if err != nil {
					return err
				}
				if len(recs) == 0 {
					return fmt.Errorf("journal %s is empty", id)
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("journal read probe: %w", err)
		}
	}
	return st.Close()
}

// probeSnapshotEvery is the serve probe's compaction cadence: short, so a
// probe stream of a few epochs has compaction observes to compare with
// plain ones.
const probeSnapshotEvery = 4

// probeServe measures the serve layer for a workload whose ops do not go
// through the daemon: one session of spec on a journaled in-process
// daemon over loopback HTTP, fed rows as dense observes by one client in
// a closed loop. Epoch 0 opens the stream untimed; every decision must
// match refs. It reports every serve.* metric and the probe daemon's
// payload and compaction counts.
func probeServe(r *run, spec serve.SessionSpec, rows [][][][]int, refs []decision) error {
	bodies := make([][]byte, len(rows))
	for e, epoch := range rows {
		b, err := json.Marshal(serve.ObserveRequest{Routing: epoch})
		if err != nil {
			return err
		}
		bodies[e] = b
	}
	specBody, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{
		Addr: "127.0.0.1:0", MaxSessions: 1,
		JournalDir: filepath.Join(r.dir, "probe-serve"), SnapshotEvery: probeSnapshotEvery,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	f := &fleet{srv: srv, base: "http://" + srv.Addr(), client: newClient(1)}
	err = f.probe(r, specBody, bodies, refs)
	if serr := f.stop(); err == nil && serr != nil {
		err = fmt.Errorf("serve probe: draining daemon: %w", serr)
	}
	return err
}

// probe runs probeServe's session against a started daemon.
func (f *fleet) probe(r *run, spec []byte, bodies [][]byte, refs []decision) error {
	code, data, err := f.post("/v1/sessions", spec)
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	if code != http.StatusCreated {
		return fmt.Errorf("serve probe: opening session: status %d: %s", code, data)
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return err
	}
	var compact, plain []float64
	due := time.Now()
	for e, body := range bodies {
		t0 := time.Now()
		code, data, err := f.post("/v1/sessions/"+info.ID+"/observe", body)
		t1 := time.Now()
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, data)
		}
		if err != nil {
			return fmt.Errorf("serve probe epoch %d: %w", e, err)
		}
		want, err := refs[e].digest()
		if err != nil {
			return err
		}
		var resp observeResponse
		if err := checkDecision(data, e, want, &resp); err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		if e > 0 {
			lat := ms(t1.Sub(t0))
			r.tr.record(0, "serve.observe", 0, 0, t0, t1)
			r.tr.sample("serve.outside_plan_ms", lat-1e3*resp.SolveSeconds)
			r.tr.sample("serve.observe_wait_ms", ms(t0.Sub(due)))
			r.tr.sample("serve.observe_due_ms", ms(t1.Sub(due)))
			if (e+1)%probeSnapshotEvery == 0 {
				compact = append(compact, lat)
			} else {
				plain = append(plain, lat)
			}
		}
		due = t1
	}
	r.opSplit(compact, plain)
	return f.scrapeMetrics(map[string]string{
		"laer_serve_journal_compactions_total":   "journal.compactions",
		"laer_serve_observe_payload_bytes_total": "serve.payload_bytes",
	}, r.layer)
}
