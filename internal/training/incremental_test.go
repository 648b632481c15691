package training

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"laermoe/internal/faults"
	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// TestIncrementalDecisionsMatchFull is the tentpole's end-to-end pin:
// across every replan policy, every drift model and a fault-injected
// cluster, a run with the drift trackers engaged must produce a report —
// decisions, summaries, timings, everything — byte-identical to the same
// run with incremental planning disabled. The trackers are an
// amortization of the observe→solve path, never a policy change.
func TestIncrementalDecisionsMatchFull(t *testing.T) {
	schedules := map[string]faults.Schedule{
		"steady": nil,
		"faulty": {
			{Epoch: 1, Iter: 0, Kind: faults.NodeFail, Node: 1},
			{Epoch: 2, Iter: 2, Kind: faults.NodeFail, Node: 2},
			{Epoch: 3, Iter: 0, Kind: faults.NodeJoin, Node: 1},
		},
	}
	for _, policy := range ReplanPolicies() {
		for _, drift := range []trace.DriftModel{trace.DriftStabilizing, trace.DriftBursty, trace.DriftMigration} {
			for name, sched := range schedules {
				cfg := onlineCfg(policy, drift)
				cfg.Faults = sched
				incremental, err := RunOnline(cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s incremental: %v", policy, drift, name, err)
				}
				cfg = onlineCfg(policy, drift)
				cfg.Faults = sched
				cfg.DisableIncremental = true
				full, err := RunOnline(cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s full: %v", policy, drift, name, err)
				}
				// PlannerTime is measured wall-clock — the one field that
				// legitimately differs between the two runs (it is what the
				// trackers improve).
				for i := range incremental.Epochs {
					incremental.Epochs[i].PlannerTime = 0
					full.Epochs[i].PlannerTime = 0
				}
				a, err := json.Marshal(incremental)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(full)
				if err != nil {
					t.Fatal(err)
				}
				if string(a) != string(b) {
					t.Errorf("%s/%s/%s: incremental and full runs diverge\nincremental: %s\nfull:        %s",
						policy, drift, name, a, b)
				}
			}
		}
	}
}

// TestIncrementalSolvesEngage checks the counters the laer-bench SLO gate
// asserts on: once a warm-policy run reaches steady state, later epochs
// must report solves that ran through the tracker, and a run with
// incremental planning disabled must report none.
func TestIncrementalSolvesEngage(t *testing.T) {
	p, err := NewOnlinePlanner(onlineCfg(ReplanWarm, trace.DriftStabilizing))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := ObservationGenerator(trace.GeneratorConfig{
		Devices: p.Devices(), Experts: p.Experts(), Layers: p.Layers(),
		TokensPerDevice: p.Setup().TokensPerDev, TopK: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var routing []*trace.RoutingMatrix
	totalInc, totalFull := 0, 0
	for epoch := 0; epoch < 4; epoch++ {
		routing = gen.StepInto(routing)
		if _, _, err := p.PlanEpoch(routing); err != nil {
			t.Fatal(err)
		}
		sum := p.Summarize()
		if got, want := sum.IncrementalSolves+sum.FullSolves, p.Layers(); got != want {
			t.Fatalf("epoch %d: %d solves counted for %d layers", epoch, got, want)
		}
		totalInc += sum.IncrementalSolves
		totalFull += sum.FullSolves
	}
	if totalInc == 0 {
		t.Error("warm run never took the incremental path")
	}
	if totalFull == 0 {
		t.Error("warm run never took the full path (the cold start must)")
	}

	cfg := onlineCfg(ReplanWarm, trace.DriftStabilizing)
	cfg.DisableIncremental = true
	pd, err := NewOnlinePlanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := ObservationGenerator(trace.GeneratorConfig{
		Devices: pd.Devices(), Experts: pd.Experts(), Layers: pd.Layers(),
		TokensPerDevice: pd.Setup().TokensPerDev, TopK: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	routing = gen2.StepInto(routing[:0])
	if _, _, err := pd.PlanEpoch(routing); err != nil {
		t.Fatal(err)
	}
	if sum := pd.Summarize(); sum.IncrementalSolves != 0 {
		t.Errorf("disabled run reported %d incremental solves", sum.IncrementalSolves)
	}
}

// epochStream is the observation process the epoch-planning checks share:
// the engine's generator at seed 17 for p's shape, with migration drift at
// rate 0.1 applied before every epoch after the first.
func epochStream(t *testing.T, p *OnlinePlanner) func(epoch int, dst []*trace.RoutingMatrix) []*trace.RoutingMatrix {
	t.Helper()
	gen, err := ObservationGenerator(trace.GeneratorConfig{
		Devices: p.Devices(), Experts: p.Experts(), Layers: p.Layers(),
		TokensPerDevice: p.Setup().TokensPerDev, TopK: 2, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return func(epoch int, dst []*trace.RoutingMatrix) []*trace.RoutingMatrix {
		if epoch > 0 {
			if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.1}); err != nil {
				t.Fatal(err)
			}
		}
		return gen.StepInto(dst)
	}
}

// TestBoundaryForecastErrorCarriesOver pins the forecast error an acted
// boundary decision reports: the error its solve was discounted by, which
// is the same layer's measured error from the previous epoch's
// observation — not the one this epoch's observation step measures a
// moment later in the same PlanEpoch. The run is long enough for the
// predictive policy's trust streak to mature, and the reactive policies
// must emit no boundary decisions and one observation decision per layer.
func TestBoundaryForecastErrorCarriesOver(t *testing.T) {
	for _, policy := range ReplanPolicies() {
		p, err := NewOnlinePlanner(onlineCfg(policy, trace.DriftBursty))
		if err != nil {
			t.Fatal(err)
		}
		next := epochStream(t, p)
		var routing []*trace.RoutingMatrix
		prevErr := make([]float64, p.Layers())
		acted, nonzero := 0, 0
		for epoch := 0; epoch < 6; epoch++ {
			routing = next(epoch, routing)
			bdec, odec, err := p.PlanEpoch(routing)
			if err != nil {
				t.Fatal(err)
			}
			if policy != ReplanPredictive && len(bdec) > 0 {
				t.Fatalf("%s epoch %d: reactive policy emitted boundary decisions %+v", policy, epoch, bdec)
			}
			if p.spec.Replans && len(odec) != p.Layers() {
				t.Fatalf("%s epoch %d: %d observation decisions for %d layers", policy, epoch, len(odec), p.Layers())
			}
			for _, d := range bdec {
				if d.ForecastError != prevErr[d.Layer] {
					t.Fatalf("%s epoch %d layer %d: boundary forecast error %v, previous observation measured %v",
						policy, epoch, d.Layer, d.ForecastError, prevErr[d.Layer])
				}
				acted++
				if d.ForecastError > 0 {
					nonzero++
				}
			}
			clear(prevErr)
			for _, d := range odec {
				prevErr[d.Layer] = d.ForecastError
			}
		}
		if policy == ReplanPredictive && (acted == 0 || nonzero == 0) {
			t.Fatalf("%s: %d acted boundary decisions, %d with a nonzero error — the check never bit", policy, acted, nonzero)
		}
	}
}

// TestLayoutRecyclingIsSafe audits every layout buffer the planner hands
// back to a solver arena while the engine's epoch sequence runs: faults
// due at iteration 0, PlanEpoch on the first iteration's routing, that
// iteration on LayoutsAt(0), then faults due later in the epoch, plus a
// planner-state round trip between two epochs. No buffer may be recycled
// twice without being reissued, none while it is in force, and none
// while the epoch's first iteration may still run on it. The predictive
// run must cover boundary replans, corrections and a mid-epoch fault.
func TestLayoutRecyclingIsSafe(t *testing.T) {
	sched := faults.Schedule{
		{Epoch: 2, Iter: 0, Kind: faults.NodeFail, Node: 1},
		{Epoch: 4, Iter: 2, Kind: faults.NodeFail, Node: 2},
	}
	var (
		p        *OnlinePlanner
		policy   ReplanPolicy
		inArena  map[*planner.Layout]bool
		runsIter bool // the epoch's first iteration may still run
	)
	recycle := recycleLayout
	t.Cleanup(func() { recycleLayout = recycle })
	recycleLayout = func(s *planner.Solver, lay *planner.Layout) {
		if inArena[lay] {
			t.Errorf("%s: layout %p recycled twice", policy, lay)
		}
		if slices.Contains(p.LayoutsAt(1), lay) {
			t.Errorf("%s: layout %p recycled while in force", policy, lay)
		}
		if runsIter && slices.Contains(p.LayoutsAt(0), lay) {
			t.Errorf("%s: layout %p recycled while the first iteration may run on it", policy, lay)
		}
		inArena[lay] = true
		recycle(s, lay)
	}
	// settle forgets buffers the arenas reissued: a layout in force after a
	// planner step was handed out again and may be recycled once more.
	settle := func() {
		for _, lay := range p.LayoutsAt(1) {
			delete(inArena, lay)
		}
	}
	for _, policy = range ReplanPolicies() {
		cfg := onlineCfg(policy, trace.DriftBursty)
		cfg.Faults = sched
		cfg.Parallelism = 1 // the audit reads planner state from inside the fanout
		var err error
		if p, err = NewOnlinePlanner(cfg); err != nil {
			t.Fatal(err)
		}
		inArena = map[*planner.Layout]bool{}
		next := epochStream(t, p)
		var routing []*trace.RoutingMatrix
		replans, corrections, midRepairs := 0, 0, 0
		for epoch := 0; epoch < 6; epoch++ {
			routing = next(epoch, routing)
			if epoch == 3 {
				st, err := p.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if err := p.RestoreState(st); err != nil {
					t.Fatal(err)
				}
				settle()
			}
			if _, err := p.ApplyFaults(sched.At(epoch, 0)); err != nil {
				t.Fatal(err)
			}
			settle()
			for l := range routing {
				FoldLostRows(routing[l], p.Topo())
			}
			before := slices.Clone(p.LayoutsAt(1))
			runsIter = true
			bdec, odec, err := p.PlanEpoch(routing)
			if err != nil {
				t.Fatal(err)
			}
			settle()
			first, now := p.LayoutsAt(0), p.LayoutsAt(1)
			boundaryReplan := make([]bool, p.Layers())
			for _, d := range bdec {
				if d.Action == ActionPredictiveReplan {
					boundaryReplan[d.Layer] = true
					replans++
				}
			}
			for l := range first {
				if (first[l] != before[l]) != boundaryReplan[l] {
					t.Fatalf("%s epoch %d layer %d: first iteration's layout changed=%v, boundary replanned=%v",
						policy, epoch, l, first[l] != before[l], boundaryReplan[l])
				}
				observed := odec != nil && odec[l].Action != ActionKeep
				if (now[l] != first[l]) != observed {
					t.Fatalf("%s epoch %d layer %d: observation changed the layout=%v, decided %v",
						policy, epoch, l, now[l] != first[l], observed)
				}
			}
			runsIter = false // the first iteration has executed
			for it := 1; it < 4; it++ {
				fdec, err := p.ApplyFaults(sched.At(epoch, it))
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range fdec {
					if d.Action != ActionKeep {
						midRepairs++
					}
				}
				settle()
			}
			corrections += p.Summarize().CorrectedLayers
		}
		if policy == ReplanPredictive && (replans == 0 || corrections == 0 || midRepairs == 0) {
			t.Fatalf("%s: %d boundary replans, %d corrections, %d mid-epoch repairs — the run must cover all three",
				policy, replans, corrections, midRepairs)
		}
	}
}

// TestFoldLostRowsConservesTokens is the property the elastic observation
// path rests on: folding dead devices' rows onto the survivors preserves
// every expert's total load and zeroes the dead rows, under randomized
// matrices and loss patterns.
func TestFoldLostRowsConservesTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		nodes := 2 + rng.Intn(3)
		perNode := 2 + rng.Intn(3)
		topo := topology.New(nodes, perNode)
		n := topo.N()
		e := 4 + rng.Intn(24)
		r := trace.NewRoutingMatrix(n, e)
		for i := 0; i < n; i++ {
			for j := 0; j < e; j++ {
				r.R[i][j] = rng.Intn(64)
			}
		}
		before := r.ExpertLoads()
		total := r.Total()

		// Fail up to nodes-1 nodes so at least one survives.
		for k := rng.Intn(nodes); k > 0; k-- {
			node := rng.Intn(nodes)
			if topo.Node(0) == node && topo.NumAvailable() <= perNode {
				continue
			}
			_ = topo.RemoveNode(node)
		}
		if topo.NumAvailable() == 0 {
			continue
		}
		FoldLostRows(r, topo)

		after := r.ExpertLoads()
		for j := 0; j < e; j++ {
			if before[j] != after[j] {
				t.Fatalf("trial %d expert %d: load %v -> %v across fold", trial, j, before[j], after[j])
			}
		}
		if got := r.Total(); got != total {
			t.Fatalf("trial %d: total %d -> %d across fold", trial, total, got)
		}
		for d := 0; d < n; d++ {
			if topo.Available(d) {
				continue
			}
			for j, v := range r.R[d] {
				if v != 0 {
					t.Fatalf("trial %d: dead device %d still holds %d tokens of expert %d", trial, d, v, j)
				}
			}
		}
	}
}
