package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"laermoe/internal/model"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
	"laermoe/internal/training"
)

const (
	planNodes, planGPUs = 64, 8
	planLayers          = 4
	planTokens          = 2048
	planDriftRate       = 0.1
	// planEpochs distinct routing epochs are generated before the clock
	// (one costs about as much as a solve, and 32 MiB as ints, 8 MiB
	// packed); the ops walk them forward and back, so every op plans on
	// one drift step from the routing before it. How many layers an op
	// replans varies from epoch to epoch and from stream to stream, so
	// more distinct epochs keep one seed's draw from setting the median.
	planEpochs = 16
	planOps    = 60
	// Every planRestartEvery ops the run restarts the planner from a
	// checkpoint of the live one, off the op clock, and re-plans the next
	// planRestartEpochs ops' epochs: eight restarts in a 10-second run,
	// spread over the whole run and, since 7 and the walk's period of 30
	// share no factor, each on a different stretch of the walk, so neither
	// a spell of the machine nor one stretch of the stream sets their
	// median.
	planRestartEvery  = 7
	planRestartEpochs = 2
	// planProbeEpochs epochs feed the traced run's layer probes; at this
	// shape each is 32 MiB and a 10 MiB observe body. The serve probe
	// posts planServeProbeEpochs epochs after the first.
	planProbeEpochs      = 3
	planServeProbeEpochs = 16
)

// planStream holds the generated epochs packed as uint16 (a cell never
// exceeds tokens x top-k), unpacked into live matrices before each op.
type planStream struct {
	epochs  [][]uint16
	layers  int
	devices int
	experts int
}

// epochAt is the epoch op k (1-based; 0 is the set-up's cold solve)
// plans on: 0,1,..,15,14,..,1,0,1,..
func epochAt(k int) int {
	period := 2 * (planEpochs - 1)
	pos := k % period
	if pos < planEpochs {
		return pos
	}
	return period - pos
}

func (ps *planStream) unpack(e int, dst []*trace.RoutingMatrix) {
	src := ps.epochs[e]
	i := 0
	for _, m := range dst {
		for _, row := range m.R {
			for x := range row {
				row[x] = int(src[i])
				i++
			}
		}
	}
}

func (ps *planStream) matrices() []*trace.RoutingMatrix {
	out := make([]*trace.RoutingMatrix, ps.layers)
	for l := range out {
		out[l] = trace.NewRoutingMatrix(ps.devices, ps.experts)
	}
	return out
}

func planConfig(seed int64, parallelism int) training.OnlineConfig {
	arch := *model.SyntheticE2048
	arch.Layers = planLayers
	return training.OnlineConfig{
		Policy:               training.ReplanWarm,
		Arch:                 &arch,
		Topo:                 topology.New(planNodes, planGPUs),
		IterationsPerEpoch:   serveIters,
		ForceTokensPerDevice: planTokens,
		GlobalBatchTokens:    planNodes * planGPUs * planTokens,
		Parallelism:          parallelism,
		Seed:                 seed,
	}
}

// runPlanLarge: one in-process OnlinePlanner on the large shape; one op
// is one PlanEpoch on routing generated before the clock.
func runPlanLarge(cfg config, r *run) error {
	ops := r.ops()
	ref, err := training.NewOnlinePlanner(planConfig(cfg.seed, 1))
	if err != nil {
		return err
	}
	ps := &planStream{layers: ref.Layers(), devices: ref.Devices(), experts: ref.Experts()}
	gen, err := training.ObservationGenerator(trace.GeneratorConfig{
		Devices: ps.devices, Experts: ps.experts, Layers: ps.layers,
		TokensPerDevice: ref.Setup().TokensPerDev, TopK: model.SyntheticE2048.TopK, Seed: cfg.seed,
	})
	if err != nil {
		return err
	}
	rows := make([][][][]int, planEpochs)
	for e := 0; e < planEpochs; e++ {
		if e > 0 {
			if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration, Rate: planDriftRate}); err != nil {
				return err
			}
		}
		step := gen.Step()
		packed := make([]uint16, 0, ps.layers*ps.devices*ps.experts)
		for _, m := range step {
			for _, row := range m.R {
				for _, v := range row {
					if v > 0xffff {
						return fmt.Errorf("routing cell %d does not fit the packed stream", v)
					}
					packed = append(packed, uint16(v))
				}
			}
		}
		ps.epochs = append(ps.epochs, packed)
		if r.tr != nil && e < planProbeEpochs {
			rows[e] = copyRows(matrixRows(step))
		}
	}
	live := ps.matrices()

	// The reference: a serial planner over the set-up epoch and every
	// timed op. It runs a few ops ahead of the live planner, between the
	// timed ops and off their clock, so the timed ops spread over most of
	// the run rather than its last quarter and a spell of the shared
	// machine sets fewer of them. Only the digests are kept, and the
	// decisions of the probe epochs.
	want := make([][sha256.Size]byte, ops+1)
	var refDecs []decision
	refBuf := ps.matrices()
	planned := 0 // want[:planned] is computed
	reference := func(upTo int) error {
		for ; planned <= upTo && planned <= ops; planned++ {
			k := planned
			ps.unpack(epochAt(k), refBuf)
			d, err := planEpoch(ref, refBuf)
			if err != nil {
				return fmt.Errorf("reference planner op %d: %w", k, err)
			}
			if want[k], err = d.digest(); err != nil {
				return err
			}
			if r.tr != nil && k < planProbeEpochs {
				refDecs = append(refDecs, d)
			}
			if cfg.inject == injectDigest && k == 1 {
				want[k][0] ^= 0xff
			}
		}
		return nil
	}
	if err := reference(planProbeEpochs - 1 + planRestartEpochs); err != nil {
		return err
	}

	// Set-up: planner construction and the cold solve, repeated.
	var p *training.OnlinePlanner
	for i := 0; i < setupRepeats; i++ {
		ps.unpack(0, live)
		// As on the serve workloads, each set-up starts from a collected
		// heap, without the references' or the last set-up's garbage.
		p = nil
		runtime.GC()
		start := time.Now()
		p, err = training.NewOnlinePlanner(planConfig(cfg.seed, 0))
		if err != nil {
			return err
		}
		d, err := planEpoch(p, live)
		if err != nil {
			return err
		}
		r.setupSec = append(r.setupSec, time.Since(start).Seconds())
		if dg, err := d.digest(); err != nil || dg != want[0] {
			return fmt.Errorf("set-up cold solve differs from the reference planner")
		}
	}

	decs := make([]decision, ops)
	errs := make([]error, ops)
	restartBuf := ps.matrices() // the restarts' own routing, so the live planner's buffer is untouched
	start, err := r.beginTimed(ops)
	if err != nil {
		return err
	}
	var paused time.Duration // reference work and restarts between ops, off the throughput clock
	for i := 0; i < ops; i++ {
		ps.unpack(epochAt(i+1), live)
		t0 := time.Now()
		b, o, opErr := p.PlanEpoch(live)
		t1 := time.Now()
		var s training.EpochSummary
		if opErr == nil {
			s = p.Summarize()
		}
		t2 := time.Now()
		r.lat[i], r.done[i] = ms(t2.Sub(t0)), t2.Sub(start)-paused
		decs[i], errs[i] = decision{Boundary: b, Observation: o, Summary: s}, opErr
		if r.traced(i) {
			op := r.tr.record(0, "plan.op", int64(i)+1, 0, t0, t2)
			r.tr.record(0, "training.plan_epoch_ms", int64(i)+1, op, t0, t1)
		}
		// After n ops the live planner has planned want[0..n]. The
		// reference moves ahead to the ops a restart would re-plan, and a
		// restart from the live planner's checkpoint re-plans them, each
		// of which must match the serial reference.
		n := i + 1
		p0 := time.Now()
		if err := reference(n + planRestartEpochs); err != nil {
			return err
		}
		if opErr == nil && n%planRestartEvery == 0 && n+planRestartEpochs <= ops {
			ck, err := takeCheckpoint(p)
			if err != nil {
				return err
			}
			load := func(k int) []*trace.RoutingMatrix {
				ps.unpack(epochAt(n+1+k), restartBuf)
				return restartBuf
			}
			r.attempted++
			if err := restartOnce(r, planConfig(cfg.seed, 0), ck, want[n+1:n+1+planRestartEpochs], load); err != nil {
				r.fail("restart after op %d: %v", i, err)
			}
		}
		paused += time.Since(p0)
	}
	r.endMeasured()

	var inc, full, migrations, replans int
	for i, d := range decs {
		r.attempted++
		if errs[i] != nil {
			r.fail("op %d: %v", i, errs[i])
			continue
		}
		if dg, err := d.digest(); err != nil || dg != want[i+1] {
			r.fail("op %d: decision differs from the serial reference planner", i)
			continue
		}
		inc += d.Summary.IncrementalSolves
		full += d.Summary.FullSolves
		migrations += d.Summary.Migrations
		replans += countReplans(d)
	}
	if r.tr == nil {
		return nil
	}
	r.layer["planner.incremental_solves"] = float64(inc)
	r.layer["planner.full_solves"] = float64(full)
	r.layer["planner.migrations"] = float64(migrations)
	r.layer["planner.replans"] = float64(replans)
	// The daemon cannot host this shape (its catalog model has 64 layers
	// of 2048 experts), so the serve layer is probed on a session of the
	// serve workloads' shape, on a stream drawn from this run's seed.
	st, err := newStream(cfg.seed*serveStreams, planServeProbeEpochs, false, true)
	if err != nil {
		return err
	}
	if err := probeServe(r, serveSpec(st.seed), st.rows, st.refs); err != nil {
		return err
	}
	return probeLayers(r, &probeInput{
		params: plannerParams{topo: ref.Topo(), capacity: model.SyntheticE2048.ExpertCapacity, params: ref.Setup().Params},
		rows:   rows[:planProbeEpochs],
		refs:   refDecs,
		topK:   model.SyntheticE2048.TopK,
		tokens: ref.Setup().TokensPerDev,
		seed:   cfg.seed,
	})
}

func countReplans(d decision) int {
	n := 0
	for _, ds := range [][]training.LayerDecision{d.Boundary, d.Observation} {
		for _, ld := range ds {
			if ld.Action != training.ActionKeep {
				n++
			}
		}
	}
	return n
}

// checkpoint is a planner's exported state, as a restart reads it, and
// the digest the restored planner must reproduce.
type checkpoint struct {
	blob   []byte
	digest uint64
}

func takeCheckpoint(p *training.OnlinePlanner) (checkpoint, error) {
	st, err := p.ExportState()
	if err != nil {
		return checkpoint{}, err
	}
	blob, err := json.Marshal(st)
	if err != nil {
		return checkpoint{}, err
	}
	return checkpoint{blob: blob, digest: p.StateDigest()}, nil
}

// restartOnce times restarting a planning session from its checkpoint —
// the planner-level counterpart of a journal-replay restart: decode the
// checkpoint, rebuild the planner, restore it, verify its digest, and
// re-plan the epochs that follow, as a journal replay re-plans the
// records written since the last compaction. load(k) returns the routing
// of the k-th epoch after the checkpoint (it may reuse one buffer), and
// each re-planned epoch must have digest want[k].
func restartOnce(r *run, cfg training.OnlineConfig, ck checkpoint, want [][sha256.Size]byte, load func(k int) []*trace.RoutingMatrix) error {
	runtime.GC() // like a set-up, each restart starts from a collected heap
	start := time.Now()
	var restored training.PlannerState
	if err := json.Unmarshal(ck.blob, &restored); err != nil {
		return err
	}
	p, err := training.NewOnlinePlanner(cfg)
	if err != nil {
		return err
	}
	if err := p.RestoreState(&restored); err != nil {
		return err
	}
	if p.StateDigest() != ck.digest {
		return fmt.Errorf("restored state digest differs")
	}
	// Loading each epoch's routing is the benchmark's work, not the
	// restart's, so it stays off the clock.
	elapsed := time.Since(start)
	for k := range want {
		routing := load(k)
		t0 := time.Now()
		d, err := planEpoch(p, routing)
		elapsed += time.Since(t0)
		if err != nil {
			return err
		}
		if got, err := d.digest(); err != nil || got != want[k] {
			return fmt.Errorf("epoch %d after the restore differs from the reference", k)
		}
	}
	r.replay = append(r.replay, elapsed.Seconds())
	return nil
}
