package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"laermoe"
	"laermoe/internal/model"
	"laermoe/internal/serve"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
	"laermoe/internal/training"
	sessionspec "laermoe/session"
)

const (
	// offlineOps is the number of SimulateOnline calls in a 10-second run.
	// After each, off the op clock, the run times one planner-checkpoint
	// restart, so the restarts spread over the whole run.
	offlineOps = 45
	// offlineRestartEpochs is how many epochs each restart re-plans.
	offlineRestartEpochs = 8
	// offlineIters is the iterations per epoch of every offline call.
	offlineIters = 6
)

func offlineOptions(seed int64, parallelism int) laermoe.OnlineOptions {
	return laermoe.OnlineOptions{
		Spec: laermoe.OnlineSessionSpec{
			Policy:             laermoe.PolicyPredictive,
			IterationsPerEpoch: offlineIters,
			Seed:               seed,
		},
		Epochs:      2,
		Drift:       laermoe.DriftMigration,
		Parallelism: parallelism,
	}
}

// reportDigest hashes a report with its measured planner times zeroed:
// everything else is simulated and must not depend on parallelism.
func reportDigest(rep *laermoe.OnlineReport) ([sha256.Size]byte, error) {
	c := *rep
	c.Epochs = append([]laermoe.OnlineEpochReport(nil), rep.Epochs...)
	for i := range c.Epochs {
		c.Epochs[i].PlannerTime = 0
	}
	b, err := json.Marshal(c)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// runOfflineSim: one op is one SimulateOnline call with the predictive
// policy; every report must match a Parallelism: 1 reference.
func runOfflineSim(cfg config, r *run) error {
	ops := r.ops()
	ref, err := laermoe.SimulateOnline(offlineOptions(cfg.seed, 1))
	if err != nil {
		return err
	}
	want, err := reportDigest(ref)
	if err != nil {
		return err
	}
	if cfg.inject == injectDigest {
		want[0] ^= 0xff
	}

	// Set-up is the first, warming call, repeated.
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // each set-up starts from a collected heap, as on the serve workloads
		start := time.Now()
		rep, err := laermoe.SimulateOnline(offlineOptions(cfg.seed, 0))
		if err != nil {
			return err
		}
		r.setupSec = append(r.setupSec, time.Since(start).Seconds())
		if dg, err := reportDigest(rep); err != nil || (dg != want && cfg.inject == "") {
			return fmt.Errorf("set-up call differs from the serial reference")
		}
	}

	// The restarts' checkpoint, and the decisions the live planner makes
	// on the epochs after it, which every restart must reproduce.
	sess, err := offlinePlanner(cfg.seed)
	if err != nil {
		return err
	}
	ck, err := takeCheckpoint(sess.p)
	if err != nil {
		return err
	}
	restartWant := make([][sha256.Size]byte, len(sess.next))
	for k, routing := range sess.next {
		d, err := planEpoch(sess.p, routing)
		if err != nil {
			return err
		}
		if restartWant[k], err = d.digest(); err != nil {
			return err
		}
	}
	load := func(k int) []*trace.RoutingMatrix { return sess.next[k] }

	reps := make([]*laermoe.OnlineReport, ops)
	errs := make([]error, ops)
	start, err := r.beginTimed(ops)
	if err != nil {
		return err
	}
	var paused time.Duration // restarts between ops, off the throughput clock
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		reps[i], errs[i] = laermoe.SimulateOnline(offlineOptions(cfg.seed, 0))
		t1 := time.Now()
		r.lat[i], r.done[i] = ms(t1.Sub(t0)), t1.Sub(start)-paused
		if r.traced(i) {
			r.tr.record(0, "offline.simulate_online", int64(i)+1, 0, t0, t1)
		}
		r.attempted++
		if err := restartOnce(r, sess.cfg, ck, restartWant, load); err != nil {
			r.fail("restart after op %d: %v", i, err)
		}
		paused += time.Since(t1)
	}
	r.endMeasured()

	for i, rep := range reps {
		r.attempted++
		if errs[i] != nil {
			r.fail("op %d: %v", i, errs[i])
			continue
		}
		dg, err := reportDigest(rep)
		if err != nil || dg != want {
			r.fail("op %d: report differs from the Parallelism: 1 reference", i)
			continue
		}
		if r.tr != nil {
			for _, e := range rep.Epochs {
				r.tr.sample("training.plan_epoch_ms", 1e3*e.PlannerTime)
			}
		}
	}
	if r.tr == nil {
		return nil
	}
	migrations, replans := 0, 0
	for _, e := range ref.Epochs {
		migrations += e.Migrations
		for _, ds := range [][]laermoe.LayerDecision{e.BoundaryDecisions, e.ObservationDecisions} {
			for _, d := range ds {
				if d.Action != string(training.ActionKeep) {
					replans++
				}
			}
		}
	}
	// The offline report carries no solve-path counters.
	r.layer["planner.incremental_solves"] = 0
	r.layer["planner.full_solves"] = 0
	r.layer["planner.migrations"] = float64(migrations)
	r.layer["planner.replans"] = float64(replans)
	// The serve layer, probed with a session of the same planner kind fed
	// the same drifting stream.
	spec := serve.SessionSpec{Spec: sessionspec.Spec{
		Model: serveModel, Policy: string(training.ReplanPredictive), IterationsPerEpoch: offlineIters, Seed: cfg.seed,
	}}
	if err := probeServe(r, spec, sess.in.rows, sess.in.refs); err != nil {
		return err
	}
	return probeLayers(r, sess.in)
}

// offlineSession is a planner of the offline run's kind driven through
// a drifting stream: the stream (as the probes' inputs), the planner, its
// config and the routing of the offlineRestartEpochs epochs after the
// stream.
type offlineSession struct {
	in   *probeInput
	cfg  training.OnlineConfig
	p    *training.OnlinePlanner
	next [][]*trace.RoutingMatrix
}

// offlinePlanner drives the run's planner — the predictive policy on the
// default model and cluster — through eight drifting epochs.
func offlinePlanner(seed int64) (*offlineSession, error) {
	arch, err := model.ByName(serveModel)
	if err != nil {
		return nil, err
	}
	s := &offlineSession{cfg: training.OnlineConfig{
		Policy: training.ReplanPredictive, Arch: arch, Topo: topology.Default(),
		IterationsPerEpoch: offlineIters, Seed: seed,
	}}
	if s.p, err = training.NewOnlinePlanner(s.cfg); err != nil {
		return nil, err
	}
	gen, err := training.ObservationGenerator(trace.GeneratorConfig{
		Devices: s.p.Devices(), Experts: s.p.Experts(), Layers: s.p.Layers(),
		TokensPerDevice: s.p.Setup().TokensPerDev, TopK: arch.TopK, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	s.in = &probeInput{
		params: plannerParams{topo: s.p.Topo(), capacity: arch.ExpertCapacity, params: s.p.Setup().Params},
		topK:   arch.TopK, tokens: s.p.Setup().TokensPerDev, seed: seed,
	}
	for e := 0; ; e++ {
		if e > 0 {
			if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration}); err != nil {
				return nil, err
			}
		}
		step := gen.Step()
		if e >= 8 {
			s.next = append(s.next, toMatrices(matrixRows(step)))
			if len(s.next) == offlineRestartEpochs {
				return s, nil
			}
			continue
		}
		d, err := planEpoch(s.p, step)
		if err != nil {
			return nil, err
		}
		s.in.rows = append(s.in.rows, copyRows(matrixRows(step)))
		s.in.refs = append(s.in.refs, d)
	}
}
