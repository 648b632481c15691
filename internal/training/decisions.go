package training

import (
	"fmt"

	"laermoe/internal/faults"
	"laermoe/internal/forecast"
	"laermoe/internal/model"
	"laermoe/internal/par"
	"laermoe/internal/planner"
	"laermoe/internal/stats"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// DecisionAction names what a planning step did to one layer's layout.
type DecisionAction string

const (
	// ActionKeep left the layout in force: the solver's keep-versus-migrate
	// score decided no re-layout was worth its churn.
	ActionKeep DecisionAction = "keep"
	// ActionWarmReplan installed an incremental warm-start re-layout
	// (observation-driven; only drifted experts re-placed).
	ActionWarmReplan DecisionAction = "warm-replan"
	// ActionScratchReplan installed a from-scratch re-layout ignoring the
	// layout previously in force.
	ActionScratchReplan DecisionAction = "scratch-replan"
	// ActionPredictiveReplan installed a forecast-driven re-layout at the
	// epoch boundary, before the observation iteration executed.
	ActionPredictiveReplan DecisionAction = "predictive-replan"
	// ActionElasticRepair installed a forced re-layout after a membership
	// fault: dead replicas stripped, affected experts re-placed into the
	// surviving slots, orphaned experts restored from the checkpoint.
	ActionElasticRepair DecisionAction = "elastic-repair"
	// ActionCheckpointRestore re-read the whole layer from the checkpoint
	// onto the survivors — the static-EP baseline's only recovery move.
	ActionCheckpointRestore DecisionAction = "checkpoint-restore"
)

// LayerDecision is the re-layout decision one planning step took for one
// MoE layer: what happened, what it cost in replica moves, and the balance
// the planner expects the resulting layout to deliver. The JSON encoding is
// the wire format of the laer-serve planning service, and the online
// engine's reports carry the same structs — a service session fed the same
// observations is byte-identical to RunOnline by construction (both run
// this package's OnlinePlanner).
type LayerDecision struct {
	Layer  int            `json:"layer"`
	Action DecisionAction `json:"action"`

	// Moves is the number of expert replicas the decision relocates onto
	// devices that did not previously host them, and MigrationTime the
	// simulated seconds charged for those moves (0 on the FSEP substrate).
	Moves         int     `json:"moves"`
	MigrationTime float64 `json:"migration_time_s"`

	// PredictedImbalance is the relative max per-device token load the
	// planner expects from the layout left in force, evaluated under the
	// routing that drove the decision (the forecast for boundary decisions,
	// the observation otherwise; 1.0 = perfect balance).
	PredictedImbalance float64 `json:"predicted_imbalance"`

	// ForecastError is the realized-vs-predicted relative load error
	// attached to the decision: the previous window's error for boundary
	// decisions (the solver's confidence discount input), this window's
	// measured error for observation decisions. 0 for non-predictive runs.
	ForecastError float64 `json:"forecast_error"`

	// Restored counts the expert replicas this decision re-read from the
	// sharded checkpoint (elastic repairs restore only experts whose every
	// replica died; a static checkpoint-restore re-reads the whole layer),
	// and RestoreTime the simulated seconds charged for those reads. Both
	// are zero — and absent from the wire format — outside fault handling.
	Restored    int     `json:"restored,omitempty"`
	RestoreTime float64 `json:"restore_time_s,omitempty"`
}

// EpochSummary aggregates one epoch's planning outcome across layers,
// identically for RunOnline reports and laer-serve responses.
type EpochSummary struct {
	// Migrations counts replica moves across both planning steps of the
	// epoch and MigrationTime the seconds charged for them;
	// BoundaryMigrationTime is the portion charged by forecast-driven
	// boundary replans.
	Migrations            int     `json:"migrations"`
	MigrationTime         float64 `json:"migration_time_s"`
	BoundaryMigrationTime float64 `json:"boundary_migration_time_s"`

	// PredictedLayers counts layers whose boundary replan acted on a
	// forecast, CorrectedLayers those where the post-observation refinement
	// overrode the forecast layout, and ForecastError the mean
	// realized-vs-predicted relative load error across forecasting layers.
	PredictedLayers int     `json:"predicted_layers"`
	CorrectedLayers int     `json:"corrected_layers"`
	ForecastError   float64 `json:"forecast_error"`

	// MeanPredictedImbalance averages the observation decisions'
	// PredictedImbalance across layers (0 when no observation step ran,
	// i.e. for the static policy).
	MeanPredictedImbalance float64 `json:"mean_predicted_imbalance"`

	// FaultEvents counts the membership/degradation events applied since
	// the previous summary, Restored the expert replicas re-read from the
	// checkpoint to recover from them, and RestoreTime the simulated
	// seconds those reads charged. All zero — and absent from the wire
	// format — when no faults fired.
	FaultEvents int     `json:"fault_events,omitempty"`
	Restored    int     `json:"restored,omitempty"`
	RestoreTime float64 `json:"restore_time_s,omitempty"`

	// IncrementalSolves counts the epoch's planning-step solves that ran
	// through a synchronized drift tracker — amortized O(drifted experts)
	// instead of a full re-score — and FullSolves those that re-scanned the
	// whole layer (cold start, post-replan rebase, faults, or incremental
	// planning disabled). Their sum is the epoch's solve count; both are
	// absent from the wire format when zero.
	IncrementalSolves int `json:"incremental_solves,omitempty"`
	FullSolves        int `json:"full_solves,omitempty"`
}

// OnlinePlanner is the per-epoch re-layout decision core shared by
// RunOnline and the laer-serve planning service: per-layer warm-start
// solvers (each with its scratch arena), the layouts currently in force,
// and the per-layer load forecasters of the predictive policy. PlanEpoch
// plans one epoch from its observation, the routing its first iteration
// realized: the forecast-driven boundary step (predictive policy only),
// whose layouts that first iteration runs on (LayoutsAt), then the
// post-observation replan, whose layouts serve the rest of the epoch.
// Summarize then reports the epoch's aggregate outcome.
//
// The planner is deterministic: the same construction config and the same
// observation sequence produce byte-identical decisions at any Parallelism
// setting and on any shared Pool. It is not safe for concurrent use; the
// service serializes each session on its own planner.
type OnlinePlanner struct {
	cfg   OnlineConfig
	spec  *PolicySpec
	setup *Setup
	arch  *model.Config
	topo  *topology.Topology

	layers int
	n      int

	solvers      []*planner.Solver
	layouts      []*planner.Layout
	owned        []bool
	plannedLoads [][]float64

	// first holds the layouts the epoch's first iteration executes on:
	// those in force once the boundary step ran. The observation step's
	// replans serve the epoch's second iteration onward, so a layout one
	// of them replaces stays in first and, when owned, waits in parked
	// until the next epoch opens before it returns to the solver arena.
	first, parked []*planner.Layout

	// trackers accumulate each layer's per-expert load drift between
	// solves so steady-state decisions run without re-scoring the layer
	// (nil when the policy never warm-starts or incremental planning is
	// disabled). A tracker is rebased after every solve that it did not
	// carry through, and invalidated whenever faults mutate the topology
	// or the layout it is bound to leaves force.
	trackers []*planner.DriftTracker

	// Predictive state, indexed by layer so boundary solves can fan across
	// the worker pool without racing.
	pred        bool
	confThr     float64
	alwaysTrust bool
	perDevice   int
	predictors  []forecast.Predictor
	fcast       [][]float64 // boundary forecast scratch
	fcastMade   []bool      // forecast produced at this boundary
	acted       []bool      // layout replanned from the forecast
	corrected   []bool      // refinement overrode the forecast layout
	lastErr     []float64   // previous window's realized error
	boundErr    []float64   // lastErr as the boundary step saw it (reporting)
	streak      []int       // consecutive sub-threshold error windows
	layerErr    []float64   // this window's realized error (reporting)

	// scoreMigCost is the per-replica migration charge amortized over the
	// epoch's remaining micro-batches, the keep-versus-migrate score input.
	scoreMigCost float64

	// Elastic recovery state. The planner owns a private clone of the
	// configured topology so fault events mutate nothing the caller holds;
	// restoreCost is the per-replica checkpoint read charge. The fault
	// accounting is indexed by layer: faultTime is the wall-clock charge
	// pending for each layer's critical path (consumed by TakeFaultCharge,
	// deliberately untouched by PlanEpoch — boundary faults are applied
	// before the boundary plan), faultMoves/faultRestored feed the next
	// Summarize. staticRestored records that the static policy abandoned
	// its fixed EP groups for a checkpoint-restored layout.
	restoreCost    float64
	faultTime      []float64
	faultMoves     []int
	faultRestored  []int
	faultEvents    int
	staticRestored bool

	workers int
	pool    *par.Pool

	// Per-epoch planning outcome, reset when PlanEpoch opens an epoch:
	// step[stepBoundary] is the forecast-driven boundary step,
	// step[stepObservation] the observation step.
	step [2]stepOutcome

	// Per-epoch solve accounting: how many planning-step solves ran
	// through a synchronized drift tracker versus a full re-score.
	incSolves, fullSolves []int
}

// The two planning steps of an epoch, indexing OnlinePlanner.step. Each
// step's migration charge lands on the iteration of the same index.
const (
	stepBoundary    = 0
	stepObservation = 1
)

// stepOutcome is one planning step's per-layer outcome this epoch.
type stepOutcome struct {
	migTime []float64
	moves   []int
	imb     []float64
	changed []bool
}

// NewOnlinePlanner validates the configuration (Epochs and Drift are
// RunOnline concerns and are not checked here) and builds the decision
// core: the memory plan, one warm-start solver per layer seeded exactly as
// the online engine seeds them, and the predictive policy's forecasters.
func NewOnlinePlanner(cfg OnlineConfig) (*OnlinePlanner, error) {
	cfg = cfg.withDefaults()
	spec, err := ResolvePolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	if _, err := ResolveWorkload(cfg.Workload); err != nil {
		return nil, err
	}
	if _, err := ResolvePredictor(cfg.Predictor); err != nil {
		return nil, err
	}
	if cfg.Workload == WorkloadInference {
		if err := cfg.Arrival.Validate(); err != nil {
			return nil, err
		}
	}
	if spec.Validate != nil {
		if err := spec.Validate(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.IterationsPerEpoch < 2 {
		return nil, fmt.Errorf("training: need at least 1 epoch and 2 iterations per epoch (the first iteration is the planner's observation)")
	}
	if cfg.MigrationCostPerReplica < 0 {
		return nil, fmt.Errorf("training: negative migration cost")
	}

	// The planner plans (and repairs) against its own clone of the
	// topology: fault events applied through ApplyFaults must not reach
	// the caller's Topology, and the caller mutating its copy must not
	// skew in-flight decisions. The clone is exact, so every downstream
	// computation is byte-identical to planning on the original.
	cfg.Topo = cfg.Topo.Clone()

	rc := RunConfig{
		System: SystemLAER, Arch: cfg.Arch, Topo: cfg.Topo,
		AuxLossWeight: cfg.AuxLossWeight, TraceSkew: cfg.TraceSkew,
		GlobalBatchTokens: cfg.GlobalBatchTokens, ForceTokensPerDevice: cfg.ForceTokensPerDevice,
		SolverOpts: cfg.SolverOpts, Seed: cfg.Seed,
	}
	if cfg.Workload == WorkloadInference && rc.GlobalBatchTokens == 0 {
		// A decode step serves whatever arrived — there is no global
		// training batch to accumulate, so an unset batch size must not
		// fall back to the training default and split each iteration
		// into thousands of micro-batches.
		rc.GlobalBatchTokens = 1
	}
	setup, err := Prepare(rc)
	if err != nil {
		return nil, err
	}
	arch, topo := cfg.Arch, cfg.Topo
	n, layers := topo.N(), arch.Layers

	initial, err := planner.StaticEP(arch.Experts, n, arch.ExpertCapacity)
	if err != nil {
		return nil, err
	}
	p := &OnlinePlanner{
		cfg: cfg, spec: spec, setup: setup, arch: arch, topo: topo,
		layers: layers, n: n,
		solvers:       make([]*planner.Solver, layers),
		layouts:       make([]*planner.Layout, layers),
		first:         make([]*planner.Layout, layers),
		parked:        make([]*planner.Layout, layers),
		owned:         make([]bool, layers),
		plannedLoads:  make([][]float64, layers),
		workers:       par.Workers(cfg.Parallelism),
		pool:          cfg.Pool,
		faultTime:     make([]float64, layers),
		faultMoves:    make([]int, layers),
		faultRestored: make([]int, layers),
		incSolves:     make([]int, layers),
		fullSolves:    make([]int, layers),
	}
	for i := range p.step {
		p.step[i] = stepOutcome{
			migTime: make([]float64, layers),
			moves:   make([]int, layers),
			imb:     make([]float64, layers),
			changed: make([]bool, layers),
		}
	}
	if spec.Tracks && !cfg.DisableIncremental {
		p.trackers = make([]*planner.DriftTracker, layers)
		for l := range p.trackers {
			p.trackers[l] = planner.NewDriftTracker(topo)
		}
	}
	p.restoreCost = cfg.RestoreCostPerReplica
	if p.restoreCost == 0 {
		p.restoreCost = CheckpointRestoreCostPerReplica(arch, topo)
	} else if p.restoreCost < 0 {
		p.restoreCost = 0
	}
	for l := 0; l < layers; l++ {
		opts := cfg.SolverOpts
		if opts.Epsilon == 0 {
			opts = planner.DefaultSolverOptions()
		}
		opts.Seed = cfg.Seed + int64(l) + 1
		p.solvers[l] = planner.NewSolver(topo, arch.ExpertCapacity, setup.Params, opts)
		p.layouts[l] = initial
		p.first[l] = initial
	}

	p.pred = spec.Predictive
	p.confThr = cfg.ConfidenceThreshold
	p.alwaysTrust = p.confThr < 0
	if p.confThr == 0 {
		p.confThr = DefaultConfidenceThreshold
	}
	p.perDevice = setup.TokensPerDev * arch.TopK
	if p.pred {
		p.predictors = make([]forecast.Predictor, layers)
		p.fcast = make([][]float64, layers)
		for l := range p.predictors {
			pr, perr := forecast.New(cfg.Predictor, arch.Experts)
			if perr != nil {
				return nil, perr
			}
			p.predictors[l] = pr
			p.fcast[l] = make([]float64, arch.Experts)
		}
		p.fcastMade, p.acted, p.corrected = make([]bool, layers), make([]bool, layers), make([]bool, layers)
		p.lastErr, p.boundErr, p.streak = make([]float64, layers), make([]float64, layers), make([]int, layers)
		p.layerErr = make([]float64, layers)
	}

	// The solver's keep-versus-migrate score compares a one-off migration
	// charge against the per-micro-batch Eq. 2 cost, so the charge is
	// amortized over the migrations' beneficiaries: every micro-batch the
	// new layout will serve this epoch.
	epochWork := float64((cfg.IterationsPerEpoch - 1) * setup.MicroBatches)
	p.scoreMigCost = cfg.MigrationCostPerReplica / epochWork
	return p, nil
}

// Setup returns the resolved execution configuration (memory plan, batch
// shape, cost model) the planner scores layouts with.
func (p *OnlinePlanner) Setup() *Setup { return p.setup }

// Layers returns the number of MoE layers planned per epoch.
func (p *OnlinePlanner) Layers() int { return p.layers }

// Devices returns the cluster's device count and Experts the per-layer
// expert count — the expected shape of PlanEpoch's routing matrices.
func (p *OnlinePlanner) Devices() int { return p.n }

// Experts returns the per-layer expert count.
func (p *OnlinePlanner) Experts() int { return p.arch.Experts }

// LayoutsAt returns the per-layer layouts iteration it of the current
// epoch executes on: for iteration 0 the layouts the boundary step left
// in force, for every later iteration the layouts in force now (the
// observation step's replans and any mid-epoch fault repairs included).
// The slice and the layouts are owned by the planner: callers must treat
// them as read-only and must not retain layouts across epochs (dropped
// layouts are recycled through the solver scratch arenas).
func (p *OnlinePlanner) LayoutsAt(it int) []*planner.Layout {
	if it == 0 {
		return p.first
	}
	return p.layouts
}

// MigrationCharge returns the simulated seconds of migration charged on
// the critical path of iteration it (0 or 1) for layer l this epoch:
// boundary replans land on the epoch's first iteration, observation
// replans on the second.
func (p *OnlinePlanner) MigrationCharge(it, l int) float64 {
	if it < len(p.step) {
		return p.step[it].migTime[l]
	}
	return 0
}

// Topo returns the planner's private topology clone — the membership and
// degradation state fault events act on. Callers may read it freely but
// must mutate it only through ApplyFaults, which keeps the layouts
// consistent with the mask.
func (p *OnlinePlanner) Topo() *topology.Topology { return p.topo }

// StaticRestored reports whether the static policy has abandoned its
// fixed EP-group layout for a checkpoint-restored one — after which its
// tokens must route by replica lookup like every other policy, since the
// EP-group owner of a token may no longer exist.
func (p *OnlinePlanner) StaticRestored() bool { return p.staticRestored }

// TakeFaultCharge drains the pending fault-recovery wall-clock charge for
// layer l — checkpoint restores plus any migration cost of the repair's
// re-placements. The engine calls it when building the first iteration
// that executes after the fault, landing recovery on that iteration's
// critical path exactly once.
func (p *OnlinePlanner) TakeFaultCharge(l int) float64 {
	t := p.faultTime[l]
	p.faultTime[l] = 0
	return t
}

// ApplyFaults applies a batch of membership/degradation events to the
// planner's topology and forces the recovery re-layout the new membership
// demands, returning one decision per layer. The adaptive policies repair
// each layout in place — surviving replicas stay put, lost ones are
// re-placed into the surviving slots, and only experts whose every
// replica died pay a checkpoint read. The static baseline has no
// re-layout move: any replica loss forces it to re-read the whole layer
// from the checkpoint onto a load-oblivious survivor layout. Events that
// cost no replicas (joins, degradations) change only the topology and
// decide "keep" everywhere.
//
// The recovery charges are queued per layer for TakeFaultCharge; the
// decisions are deterministic at any Parallelism and on any shared Pool.
func (p *OnlinePlanner) ApplyFaults(events []faults.Event) ([]LayerDecision, error) {
	if len(events) == 0 {
		return nil, nil
	}
	for _, ev := range events {
		if err := ev.Apply(p.topo); err != nil {
			return nil, err
		}
	}
	p.faultEvents += len(events)
	// Membership and degradation change the token splits (and the live-
	// device mean) behind every tracker's accumulators, and the repairs
	// below may mutate layouts in place: the incremental state is stale
	// either way, so the next solve per layer takes the full path.
	for _, tr := range p.trackers {
		tr.Invalidate()
	}
	if !p.spec.Replans {
		// A policy with no replan move (static, and the dispatch-time
		// baselines) can only recover by checkpoint restore.
		return p.staticRestore()
	}
	moves := make([]int, p.layers)
	restored := make([]int, p.layers)
	changed := make([]bool, p.layers)
	err := p.fanout(func(l int) error {
		loads := p.plannedLoads[l]
		if len(loads) == 0 {
			loads = nil // no plan yet: repair balances for uniform loads
		}
		next, st, rerr := p.solvers[l].Repair(p.layouts[l], loads)
		if rerr != nil {
			return rerr
		}
		moves[l], restored[l] = st.Moves, st.Restored
		if next != p.layouts[l] {
			changed[l] = true
			p.setLayout(l, next, true, false)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	decs := make([]LayerDecision, p.layers)
	for l := 0; l < p.layers; l++ {
		action := ActionKeep
		if changed[l] {
			action = ActionElasticRepair
		}
		migTime := float64(moves[l]) * p.cfg.MigrationCostPerReplica
		resTime := float64(restored[l]) * p.restoreCost
		p.faultMoves[l] += moves[l]
		p.faultRestored[l] += restored[l]
		p.faultTime[l] += migTime + resTime
		decs[l] = LayerDecision{
			Layer: l, Action: action,
			Moves: moves[l], MigrationTime: migTime,
			Restored: restored[l], RestoreTime: resTime,
		}
	}
	return decs, nil
}

// staticRestore is the static baseline's only recovery path: when any
// replica of the fixed layout died, the whole layer is re-read from the
// checkpoint onto an even, load-oblivious layout over the survivors. One
// layout is shared by every layer (they are identical by construction)
// and is never recycled into a solver arena.
func (p *OnlinePlanner) staticRestore() ([]LayerDecision, error) {
	lost := 0
	for d := 0; d < p.n; d++ {
		if !p.topo.Available(d) {
			lost += p.layouts[0].DeviceCount(d)
		}
	}
	decs := make([]LayerDecision, p.layers)
	for l := range decs {
		decs[l] = LayerDecision{Layer: l, Action: ActionKeep}
	}
	if lost == 0 {
		return decs, nil
	}
	restore, err := planner.StaticRestoreLayout(p.arch.Experts, p.topo, p.arch.ExpertCapacity)
	if err != nil {
		return nil, err
	}
	total := 0
	for j := 0; j < restore.E; j++ {
		total += restore.Replicas(j)
	}
	resTime := float64(total) * p.restoreCost
	for l := 0; l < p.layers; l++ {
		p.setLayout(l, restore, false, false)
		p.faultRestored[l] += total
		p.faultTime[l] += resTime
		decs[l] = LayerDecision{
			Layer: l, Action: ActionCheckpointRestore,
			Restored: total, RestoreTime: resTime,
		}
	}
	p.staticRestored = true
	return decs, nil
}

// fanout runs fn over every layer on the shared pool when one is
// configured, else on the planner's own worker budget. Decisions are
// identical either way.
func (p *OnlinePlanner) fanout(fn func(l int) error) error {
	if p.pool != nil {
		return p.pool.ForEach(p.layers, fn)
	}
	return par.ForEach(p.workers, p.layers, fn)
}

// tracker returns layer l's drift tracker, nil when incremental planning
// is off for this run.
func (p *OnlinePlanner) tracker(l int) *planner.DriftTracker {
	if p.trackers == nil {
		return nil
	}
	return p.trackers[l]
}

// recycleLayout hands a dropped layout back to its layer's solver arena.
// Every recycle goes through it, which lets the recycling tests audit
// each buffer handed back.
var recycleLayout = (*planner.Solver).Recycle

// setLayout puts next in force for layer l and releases the layout it
// replaces. An owned layout goes back to the solver's scratch arena, which
// keeps steady-state solves allocation-free — except when the observation
// step replaces it: the epoch's first iteration executes on that layout,
// so it stays in first and is parked until the next epoch opens. Every
// other replacement lands before the boundary plan or after the first
// iteration, so first follows it. A tracker still bound to the dropped
// layout is unbound first: the arena may reissue the same buffer later,
// and a pointer-matched but rewritten layout must never pass the
// tracker's sync check.
func (p *OnlinePlanner) setLayout(l int, next *planner.Layout, owned, observation bool) {
	old, oldOwned := p.layouts[l], p.owned[l]
	if tr := p.tracker(l); tr != nil && tr.Layout() == old {
		tr.Invalidate()
	}
	p.layouts[l], p.owned[l] = next, owned
	if !observation {
		p.first[l] = next
	}
	switch {
	case !oldOwned:
		// The static layouts every layer shares (the initial EP layout, a
		// checkpoint restore) are never recycled.
	case observation:
		p.parked[l] = old
	default:
		recycleLayout(p.solvers[l], old)
	}
}

// resetEpoch opens an epoch: iteration 0 will run on the layouts now in
// force, the layouts parked by the previous observation step go back to
// their solvers, and the per-epoch planning outcome is cleared.
func (p *OnlinePlanner) resetEpoch() {
	copy(p.first, p.layouts)
	for l, lay := range p.parked {
		if lay != nil {
			p.parked[l] = nil
			recycleLayout(p.solvers[l], lay)
		}
	}
	for i := range p.step {
		out := &p.step[i]
		clear(out.migTime)
		clear(out.moves)
		clear(out.imb)
		clear(out.changed)
	}
	clear(p.incSolves)
	clear(p.fullSolves)
}

// rebaseTracker re-anchors layer l's tracker on the routing its current
// layout and planned loads were just decided against. Layers with no
// planned loads yet carry no usable baseline (SolveWarm fully re-scores
// them regardless), so the tracker stays unbound until the first replan.
func (p *OnlinePlanner) rebaseTracker(l int, tr *planner.DriftTracker, r *trace.RoutingMatrix) error {
	if len(p.plannedLoads[l]) == 0 {
		tr.Invalidate()
		return nil
	}
	return tr.Rebase(r, p.layouts[l], p.plannedLoads[l], p.cfg.MigrationThreshold)
}

// solveLayer is the one per-layer solve behind both planning steps. It
// solves layer l under routing r — from scratch for the scratch policy,
// warm-started from the layout in force otherwise, where a drift tracker
// synchronized with the warm start folds r in incrementally and lets the
// solver skip the full re-score (the decision is byte-identical either
// way) — records the outcome in the step's slot, installs a changed
// layout with its reference loads (loads, or r's expert loads when nil)
// and rebases the tracker on the routing the layout was decided against.
func (p *OnlinePlanner) solveLayer(l, slot int, r *trace.RoutingMatrix, loads []float64, forecastErr float64) error {
	prev := p.layouts[l]
	tr := p.tracker(l)
	synced := tr != nil && tr.Synced(prev, p.plannedLoads[l], p.cfg.MigrationThreshold)
	var sol *planner.Solution
	var err error
	if p.cfg.Policy == ReplanScratch {
		sol, err = p.solvers[l].Solve(r)
	} else {
		sol, err = p.solvers[l].SolveWarm(r, planner.WarmStart{
			Prev:          prev,
			PrevLoads:     p.plannedLoads[l],
			Threshold:     p.cfg.MigrationThreshold,
			MigrationCost: p.scoreMigCost,
			ForecastError: forecastErr,
			Tracker:       tr,
		})
	}
	if err != nil {
		return err
	}
	if synced {
		p.incSolves[l]++
	} else {
		p.fullSolves[l]++
	}
	out := &p.step[slot]
	kept := sol.Layout == prev
	out.moves[l] = planner.MigrationMoves(prev, sol.Layout)
	out.migTime[l] = float64(out.moves[l]) * p.cfg.MigrationCostPerReplica
	if kept && synced {
		// The tracker maintained the lite routing's per-device loads
		// through the diff: the predicted balance costs O(devices)
		// instead of an O(N·E) re-route, bit-identical by construction.
		out.imb[l] = tr.Imbalance()
	} else {
		// The predicted balance streams through the planner's pooled
		// router scratch: no Dispatch is materialized on the solve path.
		out.imb[l] = planner.LiteImbalance(r, sol.Layout, p.topo)
	}
	// The threshold baseline advances only when the layout was actually
	// re-planned: while a solve keeps the previous layout, its reference
	// loads stay put, so slow drift accumulates against them instead of
	// ratcheting the baseline forward and never firing.
	if !kept {
		out.changed[l] = true
		p.setLayout(l, sol.Layout, true, slot == stepObservation)
		if loads != nil {
			p.plannedLoads[l] = append(p.plannedLoads[l][:0], loads...)
		} else {
			p.plannedLoads[l] = r.ExpertLoadsInto(p.plannedLoads[l])
		}
	}
	if tr != nil && (!kept || !synced) {
		return p.rebaseTracker(l, tr, r)
	}
	return nil
}

// planBoundaryLayer is layer l's predictive boundary step: forecast the
// epoch's loads and, once the predictor has earned trust, install a
// forecast-driven re-layout for the epoch's first iteration to run on.
func (p *OnlinePlanner) planBoundaryLayer(l int) error {
	p.fcastMade[l], p.acted[l], p.corrected[l] = false, false, false
	if !p.predictors[l].Ready() {
		return nil
	}
	p.predictors[l].ForecastInto(p.fcast[l])
	p.fcastMade[l] = true
	if !p.alwaysTrust && p.streak[l] < trustWindows {
		return nil // shadow forecast: measure, don't act
	}
	r, err := forecast.SynthRouting(p.fcast[l], p.n, p.perDevice)
	if err != nil {
		return err
	}
	// Stash the error the solver was discounted by: the observation step
	// overwrites lastErr before the boundary decisions are assembled.
	p.boundErr[l] = p.lastErr[l]
	if err := p.solveLayer(l, stepBoundary, r, p.fcast[l], p.lastErr[l]); err != nil {
		return err
	}
	p.acted[l] = true
	return nil
}

// observeLayer is layer l's observation step: the reactive policies
// replan from the realized routing; the predictive policy first measures
// its forecast error and updates its predictor, then refines the boundary
// layout the same way.
func (p *OnlinePlanner) observeLayer(l int, r *trace.RoutingMatrix) error {
	if !p.pred {
		return p.solveLayer(l, stepObservation, r, nil, 0)
	}
	realized := r.ExpertLoads()
	p.layerErr[l] = 0
	if p.fcastMade[l] {
		p.layerErr[l] = forecast.RelativeError(p.fcast[l], realized)
		p.lastErr[l] = p.layerErr[l]
		if p.layerErr[l] <= p.confThr {
			p.streak[l]++
		} else {
			p.streak[l] = 0
		}
	}
	p.predictors[l].Observe(realized)
	if p.acted[l] && p.alwaysTrust {
		// Diagnostic mode: never refine. The decision still reports the
		// balance the trusted boundary layout delivers under the realized
		// routing.
		p.step[stepObservation].imb[l] = planner.LiteImbalance(r, p.layouts[l], p.topo)
		return nil
	}
	// Refine from the observation exactly like the warm policy. Where the
	// forecast held, the solver's per-expert threshold keeps the boundary
	// layout in force at no cost; where it missed, the keep-versus-migrate
	// score decides whether the correction is worth a second round of
	// migration — so acting on a forecast never costs more than one
	// mispredicted iteration plus redoable moves.
	prev := p.layouts[l]
	if err := p.solveLayer(l, stepObservation, r, nil, 0); err != nil {
		return err
	}
	p.corrected[l] = p.acted[l] && p.layouts[l] != prev
	return nil
}

// checkRouting validates an observation's shape against the planner's.
func (p *OnlinePlanner) checkRouting(routing []*trace.RoutingMatrix) error {
	if len(routing) != p.layers {
		return fmt.Errorf("training: %d routing matrices for %d layers", len(routing), p.layers)
	}
	for l, r := range routing {
		if r == nil || r.N != p.n || r.E != p.arch.Experts {
			return fmt.Errorf("training: layer %d routing matrix is not %dx%d", l, p.n, p.arch.Experts)
		}
	}
	return nil
}

// PlanEpoch plans one epoch from its observation — the routing realized by
// the epoch's first iteration, one matrix per layer — as a single fanout
// over the worker pool. Each layer runs its forecast-driven boundary step
// (predictive policy only: forecast the epoch's loads and, once the
// predictor has earned trust, re-lay out before the first iteration,
// which removes the observation lag) and its observation step back to
// back on one worker: the reactive policies replan from the observation
// (warm incrementally, scratch from nothing); the predictive policy
// measures its forecast error, updates its predictors and refines
// mispredicted boundary layouts. Every planning input and output is
// indexed per layer, so the decisions are identical at any Parallelism.
//
// The first iteration runs on the boundary step's layouts (LayoutsAt(0)),
// which the observation step leaves readable, so a caller that executes
// that iteration — the online engine — may plan before executing it.
// Returns one decision per acted boundary layer (nil for reactive
// policies) and one observation decision per layer (nil for policies that
// never replan).
func (p *OnlinePlanner) PlanEpoch(routing []*trace.RoutingMatrix) (boundary, observation []LayerDecision, err error) {
	if err := p.checkRouting(routing); err != nil {
		return nil, nil, err
	}
	p.resetEpoch()
	if !p.spec.Replans {
		return nil, nil, nil
	}
	err = p.fanout(func(l int) error {
		if p.pred {
			if err := p.planBoundaryLayer(l); err != nil {
				return err
			}
		}
		return p.observeLayer(l, routing[l])
	})
	if err != nil {
		return nil, nil, err
	}
	if p.pred {
		for l := 0; l < p.layers; l++ {
			if p.acted[l] {
				boundary = append(boundary, p.decision(l, stepBoundary, p.boundErr[l]))
			}
		}
	}
	observation = make([]LayerDecision, p.layers)
	for l := range observation {
		var ferr float64
		if p.pred {
			ferr = p.layerErr[l]
		}
		observation[l] = p.decision(l, stepObservation, ferr)
	}
	return boundary, observation, nil
}

// decision reports layer l's outcome of one planning step.
func (p *OnlinePlanner) decision(l, slot int, forecastErr float64) LayerDecision {
	out := &p.step[slot]
	action := ActionKeep
	switch {
	case !out.changed[l]:
		// The solve kept the layout in force.
	case slot == stepBoundary:
		action = ActionPredictiveReplan
	case p.cfg.Policy == ReplanScratch:
		action = ActionScratchReplan
	default:
		action = ActionWarmReplan
	}
	return LayerDecision{
		Layer: l, Action: action,
		Moves: out.moves[l], MigrationTime: out.migTime[l],
		PredictedImbalance: out.imb[l],
		ForecastError:      forecastErr,
	}
}

// Summarize aggregates the epoch's planning outcome. Call it after
// PlanEpoch; fault recoveries applied since the previous call are folded
// in.
func (p *OnlinePlanner) Summarize() EpochSummary {
	var s EpochSummary
	b, o := &p.step[stepBoundary], &p.step[stepObservation]
	for l := 0; l < p.layers; l++ {
		s.Migrations += b.moves[l] + o.moves[l]
		s.MigrationTime += b.migTime[l] + o.migTime[l]
		s.BoundaryMigrationTime += b.migTime[l]
	}
	if p.pred {
		errSum, made := 0.0, 0
		for l := 0; l < p.layers; l++ {
			if p.acted[l] {
				s.PredictedLayers++
			}
			if p.corrected[l] {
				s.CorrectedLayers++
			}
			if p.fcastMade[l] {
				errSum += p.layerErr[l]
				made++
			}
		}
		if made > 0 {
			s.ForecastError = errSum / float64(made)
		}
	}
	// Zero when no observation step ran this epoch (the reset cleared it).
	s.MeanPredictedImbalance = stats.Mean(o.imb)
	for l := 0; l < p.layers; l++ {
		s.IncrementalSolves += p.incSolves[l]
		s.FullSolves += p.fullSolves[l]
	}
	// Fault recovery is summarized once and the counters drained: fault
	// events are applied before PlanEpoch (the boundary plan must see the
	// post-fault membership), so the epoch reset cannot clear them.
	s.FaultEvents = p.faultEvents
	p.faultEvents = 0
	for l := 0; l < p.layers; l++ {
		s.Migrations += p.faultMoves[l]
		s.MigrationTime += float64(p.faultMoves[l]) * p.cfg.MigrationCostPerReplica
		s.Restored += p.faultRestored[l]
		s.RestoreTime += float64(p.faultRestored[l]) * p.restoreCost
		p.faultMoves[l], p.faultRestored[l] = 0, 0
	}
	return s
}
