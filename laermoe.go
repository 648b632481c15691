// Package laermoe is the public API of the LAER-MoE reproduction: a
// simulation library for load-adaptive expert re-layout in
// Mixture-of-Experts training (Liu et al., ASPLOS 2026).
//
// The package wraps the internal substrates — cluster/topology model,
// synthetic routing traces, the FSEP data plane, the load-balancing
// planner (Algorithms 1-4), the discrete-event executor and the baseline
// systems — behind plain types:
//
//	cluster, _ := laermoe.NewCluster(laermoe.ClusterSpec{Nodes: 4, GPUsPerNode: 8})
//	report, _ := laermoe.Simulate(laermoe.SimOptions{
//	    System:  laermoe.SystemLAER,
//	    Model:   "mixtral-8x7b-e8k2",
//	    Cluster: cluster,
//	})
//	fmt.Printf("%.0f tokens/s, a2a share %.1f%%\n", report.Throughput, 100*report.A2AShare)
//
// See the examples/ directory for runnable walkthroughs and cmd/ for the
// command line tools.
package laermoe

import (
	"fmt"
	"io"

	"laermoe/internal/costmodel"
	"laermoe/internal/experiments"
	"laermoe/internal/faults"
	"laermoe/internal/forecast"
	"laermoe/internal/model"
	"laermoe/internal/planner"
	"laermoe/internal/stats"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
	"laermoe/internal/training"
	"laermoe/session"
)

// System names accepted by Simulate.
const (
	SystemLAER      = "laer"
	SystemFSDPEP    = "fsdp+ep"
	SystemMegatron  = "megatron"
	SystemFlexMoE   = "flexmoe"
	SystemSmartMoE  = "smartmoe"
	SystemFasterMoE = "fastermoe"
	SystemBalanced  = "balanced"
)

// Systems returns every simulatable system name.
func Systems() []string {
	out := make([]string, 0, len(training.Systems()))
	for _, s := range training.Systems() {
		out = append(out, string(s))
	}
	return out
}

// Models returns the catalog of evaluated model configurations.
func Models() []string { return model.Names() }

// ClusterSpec describes a simulated GPU cluster. Zero-valued bandwidth and
// compute fields default to the paper's A100 constants.
type ClusterSpec struct {
	Nodes       int
	GPUsPerNode int
	// IntraBW and InterBW are unidirectional point-to-point bandwidths in
	// bytes/s (0 → NVLink 300 GB/s and per-GPU InfiniBand 12.5 GB/s).
	IntraBW float64
	InterBW float64
	// EffectiveFLOPS is per-GPU sustained compute (0 → 312 TF x 45% MFU).
	EffectiveFLOPS float64
}

// Cluster is a configured topology handle.
type Cluster struct {
	topo *topology.Topology
}

// NewCluster builds a cluster from a spec.
func NewCluster(spec ClusterSpec) (*Cluster, error) {
	if spec.Nodes <= 0 || spec.GPUsPerNode <= 0 {
		return nil, fmt.Errorf("laermoe: cluster needs positive nodes and GPUs per node")
	}
	t := topology.New(spec.Nodes, spec.GPUsPerNode)
	if spec.IntraBW > 0 {
		t.IntraBW = spec.IntraBW
	}
	if spec.InterBW > 0 {
		t.InterBW = spec.InterBW
	}
	if spec.EffectiveFLOPS > 0 {
		t.FLOPS = spec.EffectiveFLOPS
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{topo: t}, nil
}

// DefaultCluster returns the paper's evaluation cluster (4 nodes x 8
// A100-80GB).
func DefaultCluster() *Cluster { return &Cluster{topo: topology.Default()} }

// GPUs returns the total device count.
func (c *Cluster) GPUs() int { return c.topo.N() }

// SetStraggler marks one GPU as computing `factor` times slower than
// nominal (factor >= 1), for failure-injection studies.
func (c *Cluster) SetStraggler(gpu int, factor float64) error {
	return c.topo.SetSlowdown(gpu, factor)
}

// String describes the cluster.
func (c *Cluster) String() string { return c.topo.String() }

// SimOptions configures one simulated training run.
type SimOptions struct {
	// System is one of the System* constants.
	System string
	// Model is a catalog name from Models().
	Model string
	// Cluster is the simulated hardware (nil → DefaultCluster).
	Cluster *Cluster

	// AuxLossWeight is the auxiliary load-balancing loss weight shaping
	// the routing distribution (0 disables it).
	AuxLossWeight float64
	// DatasetSkew overrides the routing concentration (0 → default 1.0).
	DatasetSkew float64

	Iterations int // 0 → 12
	Warmup     int // 0 → 3
	Seed       int64

	// ForceTokensPerDevice bypasses the memory fitter (used by
	// MLP-module-only scaling studies; leave 0 normally).
	ForceTokensPerDevice int
}

// SimReport summarizes a simulated run.
type SimReport struct {
	System string
	Model  string

	IterationTime float64 // mean post-warmup seconds per iteration
	Throughput    float64 // tokens per second
	GlobalBatch   int     // tokens per iteration

	// Breakdown maps activity → mean seconds per iteration across ranks
	// ("a2a", "expert", "attention", "prefetch", "gradsync", "tpcomm",
	// "gate", "dispatcher", "other").
	Breakdown map[string]float64
	// A2AShare is the token All-to-All fraction of attributed time.
	A2AShare float64
	// PerLayerImbalance is the relative max token count per MoE layer
	// (1.0 = perfect balance).
	PerLayerImbalance []float64
	// MeanImbalance averages PerLayerImbalance.
	MeanImbalance float64
	// PlannerTime is the measured CPU seconds per iteration spent solving
	// re-layout strategies (LAER and FlexMoE).
	PlannerTime float64

	// TPDegree and TokensPerDevice are the memory fitter's choices.
	TPDegree        int
	TokensPerDevice int
}

// Simulate runs a multi-iteration training simulation.
func Simulate(opts SimOptions) (*SimReport, error) {
	if opts.Cluster == nil {
		opts.Cluster = DefaultCluster()
	}
	arch, err := model.ByName(opts.Model)
	if err != nil {
		return nil, err
	}
	if opts.Iterations == 0 {
		opts.Iterations = 12
	}
	if opts.Warmup == 0 {
		opts.Warmup = 3
	}
	cfg := training.RunConfig{
		System:               training.System(opts.System),
		Arch:                 arch,
		Topo:                 opts.Cluster.topo,
		AuxLossWeight:        opts.AuxLossWeight,
		TraceSkew:            opts.DatasetSkew,
		Iterations:           opts.Iterations,
		Warmup:               opts.Warmup,
		Seed:                 opts.Seed,
		ForceTokensPerDevice: opts.ForceTokensPerDevice,
	}
	setup, err := training.Prepare(cfg)
	if err != nil {
		return nil, err
	}
	run, err := training.Run(cfg)
	if err != nil {
		return nil, err
	}
	bd := run.MeanBreakdown()
	imb := run.MeanPerLayerImbalance()
	plannerTime := 0.0
	if n := len(run.Iterations); n > 0 {
		plannerTime = run.Iterations[n-1].PlannerTime
	}
	return &SimReport{
		System:        string(cfg.System),
		Model:         arch.Name,
		IterationTime: run.MeanIterationTime(),
		Throughput:    run.Throughput(),
		GlobalBatch:   run.GlobalBatch,
		Breakdown: map[string]float64{
			"attention": bd.Attention, "gate": bd.Gate, "dispatcher": bd.Dispatcher,
			"expert": bd.Expert, "a2a": bd.A2A, "prefetch": bd.Prefetch,
			"gradsync": bd.GradSync, "tpcomm": bd.TPComm, "other": bd.Other,
		},
		A2AShare:          bd.A2AShare(),
		PerLayerImbalance: imb,
		MeanImbalance:     stats.Mean(imb),
		PlannerTime:       plannerTime,
		TPDegree:          setup.TPDegree,
		TokensPerDevice:   setup.TokensPerDev,
	}, nil
}

// Replan policy names accepted by SimulateOnline. The names are aliases
// into the policy registry — LookupPolicy resolves them to their
// PolicySpec entries.
const (
	PolicyStatic  = "static"
	PolicyScratch = "scratch"
	PolicyWarm    = "warm"
	// PolicyPredictive forecasts each epoch's expert loads and replans
	// before the epoch's first iteration executes, removing the
	// observation lag the reactive policies pay; it falls back to warm
	// behaviour whenever the forecast cannot be trusted.
	PolicyPredictive = "predictive"
	// PolicyLLEP never re-lays-out: it routes every token block to the
	// least-loaded replica of its expert at dispatch time (LLEP-style
	// serving baseline).
	PolicyLLEP = "llep"
	// PolicyScoreBalance never re-lays-out: it blends each device's
	// routing distribution toward uniform before apportioning tokens
	// (score-distribution balancing baseline).
	PolicyScoreBalance = "score-balance"
)

// Workload names accepted by OnlineOptions.Workload.
const (
	// WorkloadTraining is the classic multi-epoch training workload
	// (step-time objective, the default).
	WorkloadTraining = "training"
	// WorkloadInference drives request-level decode traffic through the
	// same planning loop and reports p50/p99 decode latency.
	WorkloadInference = "inference"
)

// Arrival shape names accepted by OnlineOptions.Arrival (inference
// workload only).
const (
	// ArrivalDiurnal modulates the request rate sinusoidally (day/night
	// cycle, the default).
	ArrivalDiurnal = "diurnal"
	// ArrivalBursty idles below the mean and spikes during flash-crowd
	// burst episodes.
	ArrivalBursty = "bursty"
)

// PolicySpec describes one registered replan policy. Replans reports that
// the policy plans re-layouts from observations; Tracks that it carries
// incremental drift trackers; Predictive that it forecasts loads at epoch
// boundaries. The dispatch-time baselines (llep, score-balance) have all
// three false.
type PolicySpec struct {
	Name        string
	Description string
	Replans     bool
	Tracks      bool
	Predictive  bool
}

// WorkloadSpec describes one registered workload.
type WorkloadSpec struct {
	Name        string
	Description string
}

// PredictorSpec describes one registered load predictor.
type PredictorSpec struct {
	Name        string
	Description string
}

// DriftSpec describes one registered drift model.
type DriftSpec struct {
	Name        string
	Description string
}

// LookupPolicy resolves a policy name to its registry entry, failing fast
// with the valid set on an unknown name.
func LookupPolicy(name string) (PolicySpec, error) {
	spec, err := training.ResolvePolicy(training.ReplanPolicy(name))
	if err != nil {
		return PolicySpec{}, err
	}
	return PolicySpec{
		Name: string(spec.Name), Description: spec.Description,
		Replans: spec.Replans, Tracks: spec.Tracks, Predictive: spec.Predictive,
	}, nil
}

// LookupWorkload resolves a workload name to its registry entry.
func LookupWorkload(name string) (WorkloadSpec, error) {
	spec, err := training.ResolveWorkload(training.Workload(name))
	if err != nil {
		return WorkloadSpec{}, err
	}
	return WorkloadSpec{Name: string(spec.Name), Description: spec.Description}, nil
}

// LookupPredictor resolves a predictor name to its registry entry.
func LookupPredictor(name string) (PredictorSpec, error) {
	spec, err := training.ResolvePredictor(forecast.Kind(name))
	if err != nil {
		return PredictorSpec{}, err
	}
	return PredictorSpec{Name: string(spec.Name), Description: spec.Description}, nil
}

// LookupDrift resolves a drift-model name to its registry entry.
func LookupDrift(name string) (DriftSpec, error) {
	spec, err := training.ResolveDrift(trace.DriftModel(name))
	if err != nil {
		return DriftSpec{}, err
	}
	return DriftSpec{Name: string(spec.Name), Description: spec.Description}, nil
}

// PolicySpecs returns every registered replan policy, in registration
// order.
func PolicySpecs() []PolicySpec {
	specs := training.PolicySpecs()
	out := make([]PolicySpec, len(specs))
	for i, s := range specs {
		out[i] = PolicySpec{
			Name: string(s.Name), Description: s.Description,
			Replans: s.Replans, Tracks: s.Tracks, Predictive: s.Predictive,
		}
	}
	return out
}

// WorkloadSpecs returns every registered workload.
func WorkloadSpecs() []WorkloadSpec {
	specs := training.WorkloadSpecs()
	out := make([]WorkloadSpec, len(specs))
	for i, s := range specs {
		out[i] = WorkloadSpec{Name: string(s.Name), Description: s.Description}
	}
	return out
}

// PredictorSpecs returns every registered load predictor.
func PredictorSpecs() []PredictorSpec {
	specs := training.PredictorSpecs()
	out := make([]PredictorSpec, len(specs))
	for i, s := range specs {
		out[i] = PredictorSpec{Name: string(s.Name), Description: s.Description}
	}
	return out
}

// DriftSpecs returns every registered drift model.
func DriftSpecs() []DriftSpec {
	specs := training.DriftSpecs()
	out := make([]DriftSpec, len(specs))
	for i, s := range specs {
		out[i] = DriftSpec{Name: string(s.Name), Description: s.Description}
	}
	return out
}

// Arrivals returns every inference arrival-shape name.
func Arrivals() []string {
	shapes := trace.ArrivalShapes()
	out := make([]string, len(shapes))
	for i, s := range shapes {
		out[i] = string(s)
	}
	return out
}

// Predictor names accepted by OnlineOptions.Predictor.
const (
	// PredictorLast forecasts that the next window repeats the current
	// one (persistence).
	PredictorLast = "last"
	// PredictorEMA forecasts the exponential moving average of the
	// history — noise-robust, deliberately lagging sustained drift.
	PredictorEMA = "ema"
	// PredictorTrend fits a per-expert least-squares line over a sliding
	// window and extrapolates one step ahead — the only predictor that
	// anticipates sustained drift instead of chasing it (the default).
	PredictorTrend = "trend"
)

// Drift model names accepted by SimulateOnline.
const (
	DriftNone        = "none"
	DriftStabilizing = "stabilizing"
	DriftBursty      = "bursty"
	DriftMigration   = "migration"
)

// OnlineSessionSpec is the shared online-session specification — policy,
// workload, predictor, thresholds, batch shape — embedded by
// OnlineOptions, by the laer-serve SessionSpec and by the laer-bench
// session builder, so the three surfaces can never drift apart. See
// package laermoe/session for the field documentation.
type OnlineSessionSpec = session.Spec

// OnlineOptions configures one multi-epoch online re-layout simulation:
// the routing distribution drifts at every epoch boundary and the chosen
// policy replans the expert layouts as the run progresses. The embedded
// Spec carries everything an online session shares with the laer-serve
// wire format (policy, workload, predictor, thresholds, batch shape);
// the fields below are simulation-only knobs the service has no use for.
type OnlineOptions struct {
	// Spec is the shared session specification. Its fields are promoted:
	// read opts.Policy as before, but composite literals now set
	// Spec: laermoe.OnlineSessionSpec{Policy: ...}.
	session.Spec

	// Cluster is the simulated hardware (nil → DefaultCluster).
	Cluster *Cluster

	// Epochs is the number of drift windows (0 → 4).
	Epochs int

	// Drift is one of the Drift* constants (default DriftStabilizing) and
	// DriftRate its strength in (0,1] (0 → 0.5). Training workload only.
	Drift     string
	DriftRate float64

	// RestoreCostPerReplica is the wall time charged per expert replica
	// re-read from the sharded optimizer checkpoint during fault recovery
	// (seconds). 0 selects the modeled default (CheckpointRestoreCost),
	// negative makes restores free.
	RestoreCostPerReplica float64

	// Parallelism bounds the goroutines solving per-layer layouts (and
	// synthesizing per-layer routing) at an epoch boundary (0 → all CPUs).
	// The report is identical at any setting.
	Parallelism int
}

// LayerDecision is one planning step's re-layout decision for one MoE
// layer — what happened ("keep", "warm-replan", "scratch-replan",
// "predictive-replan"), the replica moves it cost, and the balance the
// planner predicts for the layout left in force. The laer-serve daemon
// returns the same decisions (as the same JSON) for the same observations.
type LayerDecision struct {
	Layer  int    `json:"layer"`
	Action string `json:"action"`

	Moves         int     `json:"moves"`
	MigrationTime float64 `json:"migration_time_s"`

	// Restored counts expert replicas re-read from checkpoint by a fault
	// recovery decision, and RestoreTime the wall time charged for them
	// (both zero outside fault recovery).
	Restored    int     `json:"restored,omitempty"`
	RestoreTime float64 `json:"restore_time_s,omitempty"`

	// PredictedImbalance is the relative max per-device token load the
	// planner expects from the layout left in force, under the routing
	// that drove the decision (1.0 = perfect balance).
	PredictedImbalance float64 `json:"predicted_imbalance"`
	// ForecastError is the realized-vs-predicted relative load error
	// attached to the decision (0 for non-predictive runs).
	ForecastError float64 `json:"forecast_error"`
}

// OnlineEpochReport summarizes one epoch of an online run.
type OnlineEpochReport struct {
	Epoch int

	StepTime      float64 // summed simulated wall time of the epoch
	IterationTime float64 // mean seconds per iteration
	Throughput    float64 // tokens per second

	// IterationTimes is each iteration's simulated wall time in order,
	// migration charges included where they land (the first iteration for
	// forecast-driven boundary replans, the second for observation
	// replans). The first-vs-rest gap is the observation-lag penalty the
	// predictive policy removes.
	IterationTimes []float64

	Migrations    int     // expert replicas relocated entering this epoch
	MigrationTime float64 // seconds charged for those relocations
	// BoundaryMigrationTime is the portion of MigrationTime charged on
	// the epoch's first iteration by predictive boundary replans.
	BoundaryMigrationTime float64
	Imbalance             float64 // mean relative max device load (1.0 = perfect)
	PlannerTime           float64 // measured CPU seconds of the epoch's solves

	// Requests counts the decode requests served this epoch, and
	// DecodeP50/DecodeP99 their decode-latency percentiles in seconds
	// (inference workload only; all zero for training).
	Requests  int
	DecodeP50 float64
	DecodeP99 float64

	// PredictedLayers counts layers whose boundary replan acted on a
	// forecast, CorrectedLayers those where the post-observation
	// refinement overrode the forecast layout, and ForecastError the mean
	// realized-vs-predicted relative load error across forecasting layers
	// (all zero for non-predictive policies).
	PredictedLayers int
	CorrectedLayers int
	ForecastError   float64

	// BoundaryDecisions are the per-layer forecast-driven decisions taken
	// at the epoch boundary (predictive policy only; nil otherwise), and
	// ObservationDecisions the per-layer decisions of the post-observation
	// replan (nil for the static policy).
	BoundaryDecisions    []LayerDecision
	ObservationDecisions []LayerDecision

	// FaultEvents lists the fault-schedule events that fired during this
	// epoch (wire syntax), FaultDecisions the per-layer recovery decisions
	// they forced, and Restored/RestoreTime the checkpoint re-read volume
	// and charge they cost. All empty on fault-free epochs.
	FaultEvents    []string
	FaultDecisions []LayerDecision
	Restored       int
	RestoreTime    float64
}

// FaultRecovery summarizes how one fault epoch was absorbed: what fired,
// what the recovery re-read from checkpoint, the step-time it added over
// the previous epoch, and how many epochs the policy needed to return to
// within 10% of the pre-fault imbalance (-1 = never within the run).
type FaultRecovery struct {
	Epoch           int      `json:"epoch"`
	Events          []string `json:"events"`
	Restored        int      `json:"restored"`
	RestoreTime     float64  `json:"restore_time_s"`
	AddedStepTime   float64  `json:"added_step_time_s"`
	EpochsToRecover int      `json:"epochs_to_recover"`
}

// OnlineReport summarizes a multi-epoch online run.
type OnlineReport struct {
	Policy string
	// Workload names what the run planned for ("training" or
	// "inference") and Arrival the traffic shape of an inference run
	// (empty for training).
	Workload string
	Arrival  string
	Drift    string
	Model    string
	// Predictor is the forecaster PolicyPredictive ran with (empty for
	// other policies).
	Predictor string

	Epochs      []OnlineEpochReport
	GlobalBatch int // tokens per iteration across the cluster

	// Recoveries derives one record per fault epoch (empty without a
	// FaultSchedule).
	Recoveries []FaultRecovery

	// TotalStepTime is the cumulative simulated step time — the headline
	// number replanning policies compete on — and TotalMigrations the
	// total relocation volume in expert replicas.
	TotalStepTime   float64
	TotalMigrations int
	// MeanThroughput is tokens/s over the whole run.
	MeanThroughput float64
	// MeanForecastError averages the per-epoch realized-vs-predicted
	// relative load error over forecasting epochs (0 for non-predictive
	// policies).
	MeanForecastError float64
	// DecodeP50/DecodeP99 are the run's request decode-latency
	// percentiles in seconds (inference workload only; 0 for training).
	DecodeP50 float64
	DecodeP99 float64
	// ObservationLag sums, over the epochs where a predictor can have
	// earned trust (>= 3), the gap between each epoch's first iteration —
	// net of boundary migration charges — and its steady iterations: the
	// Fig. 7 adaptation-lag penalty the predictive policy removes,
	// measured identically for every policy.
	ObservationLag float64
}

// SimulateOnline runs a multi-epoch training simulation whose routing
// trace drifts between epochs, replanning expert layouts per the chosen
// policy and replaying every epoch against the evolving layout. Compare
// PolicyWarm against PolicyStatic and PolicyScratch on the same options to
// measure what load-adaptive re-layout buys end to end.
func SimulateOnline(opts OnlineOptions) (*OnlineReport, error) {
	if opts.Cluster == nil {
		opts.Cluster = DefaultCluster()
	}
	if opts.Model == "" {
		opts.Model = "mixtral-8x7b-e8k2"
	}
	if opts.Policy == "" {
		opts.Policy = PolicyWarm
	}
	arch, err := model.ByName(opts.Model)
	if err != nil {
		return nil, err
	}
	sched, err := faults.Parse(opts.FaultSchedule)
	if err != nil {
		return nil, err
	}
	rep, err := training.RunOnline(training.OnlineConfig{
		Policy:   training.ReplanPolicy(opts.Policy),
		Workload: training.Workload(opts.Workload),
		Arrival:  trace.ArrivalShape(opts.Arrival),
		Arch:     arch,
		Topo:     opts.Cluster.topo,
		Epochs:   opts.Epochs, IterationsPerEpoch: opts.IterationsPerEpoch,
		Drift:                   trace.DriftConfig{Model: trace.DriftModel(opts.Drift), Rate: opts.DriftRate},
		MigrationThreshold:      opts.MigrationThreshold,
		MigrationCostPerReplica: opts.MigrationCostPerReplica,
		Faults:                  sched,
		RestoreCostPerReplica:   opts.RestoreCostPerReplica,
		Predictor:               forecast.Kind(opts.Predictor),
		ConfidenceThreshold:     opts.ConfidenceThreshold,
		AuxLossWeight:           opts.AuxLossWeight,
		TraceSkew:               opts.DatasetSkew,
		ForceTokensPerDevice:    opts.ForceTokensPerDevice,
		GlobalBatchTokens:       opts.GlobalBatchTokens,
		Parallelism:             opts.Parallelism,
		Seed:                    opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := &OnlineReport{
		Policy:            string(rep.Policy),
		Workload:          string(rep.Workload),
		Arrival:           string(rep.Arrival),
		Drift:             string(rep.Drift),
		Model:             rep.Model,
		Predictor:         string(rep.Predictor),
		GlobalBatch:       rep.GlobalBatch,
		TotalStepTime:     rep.TotalStepTime,
		TotalMigrations:   rep.TotalMigrations,
		MeanThroughput:    rep.MeanThroughput(),
		MeanForecastError: rep.MeanForecastError(),
		ObservationLag:    rep.ObservationLag(),
		DecodeP50:         rep.DecodeP50,
		DecodeP99:         rep.DecodeP99,
	}
	for _, e := range rep.Epochs {
		out.Epochs = append(out.Epochs, OnlineEpochReport{
			Epoch:                 e.Epoch,
			StepTime:              e.StepTime,
			IterationTime:         e.IterationTime,
			Throughput:            e.Throughput,
			IterationTimes:        append([]float64(nil), e.IterationTimes...),
			Migrations:            e.Migrations,
			MigrationTime:         e.MigrationTime,
			BoundaryMigrationTime: e.BoundaryMigrationTime,
			Imbalance:             e.Imbalance,
			PlannerTime:           e.PlannerTime,
			Requests:              e.Requests,
			DecodeP50:             e.DecodeP50,
			DecodeP99:             e.DecodeP99,
			PredictedLayers:       e.PredictedLayers,
			CorrectedLayers:       e.CorrectedLayers,
			ForecastError:         e.ForecastError,
			BoundaryDecisions:     publicDecisions(e.BoundaryDecisions),
			ObservationDecisions:  publicDecisions(e.ObservationDecisions),
			FaultEvents:           append([]string(nil), e.FaultEvents...),
			FaultDecisions:        publicDecisions(e.FaultDecisions),
			Restored:              e.Restored,
			RestoreTime:           e.RestoreTime,
		})
	}
	for _, r := range rep.Recoveries {
		out.Recoveries = append(out.Recoveries, FaultRecovery{
			Epoch:           r.Epoch,
			Events:          append([]string(nil), r.Events...),
			Restored:        r.Restored,
			RestoreTime:     r.RestoreTime,
			AddedStepTime:   r.AddedStepTime,
			EpochsToRecover: r.EpochsToRecover,
		})
	}
	return out, nil
}

func publicDecisions(ds []training.LayerDecision) []LayerDecision {
	if ds == nil {
		return nil
	}
	out := make([]LayerDecision, len(ds))
	for i, d := range ds {
		out[i] = LayerDecision{
			Layer: d.Layer, Action: string(d.Action),
			Moves: d.Moves, MigrationTime: d.MigrationTime,
			Restored: d.Restored, RestoreTime: d.RestoreTime,
			PredictedImbalance: d.PredictedImbalance,
			ForecastError:      d.ForecastError,
		}
	}
	return out
}

// RelocationCost returns the wall time (seconds) of relocating one expert
// replica — parameters plus optimizer state over the inter-node fabric —
// for use as OnlineOptions.MigrationCostPerReplica when modelling
// relocation-style substrates instead of FSEP.
func RelocationCost(modelName string, cluster *Cluster) (float64, error) {
	if cluster == nil {
		cluster = DefaultCluster()
	}
	if modelName == "" {
		modelName = "mixtral-8x7b-e8k2"
	}
	arch, err := model.ByName(modelName)
	if err != nil {
		return 0, err
	}
	return training.RelocationCostPerReplica(arch, cluster.topo), nil
}

// CheckpointRestoreCost returns the wall time (seconds) of re-reading one
// expert replica from the sharded optimizer checkpoint — the charge fault
// recovery pays for expert state no surviving device holds, and the
// default behind OnlineOptions.RestoreCostPerReplica. Checkpoint traffic
// crosses the storage fabric, so a restore is several times slower than
// the inter-node replica move RelocationCost models.
func CheckpointRestoreCost(modelName string, cluster *Cluster) (float64, error) {
	if cluster == nil {
		cluster = DefaultCluster()
	}
	if modelName == "" {
		modelName = "mixtral-8x7b-e8k2"
	}
	arch, err := model.ByName(modelName)
	if err != nil {
		return 0, err
	}
	return training.CheckpointRestoreCostPerReplica(arch, cluster.topo), nil
}

// ValidateFaultSchedule parses an OnlineOptions.FaultSchedule string and
// checks every event against the cluster shape and the run horizon —
// node/device indices in range, membership transitions consistent (no
// failing a failed node, no killing the whole cluster), every firing point
// inside epochs x itersPerEpoch. Use it to fail fast before a run.
func ValidateFaultSchedule(schedule string, cluster *Cluster, epochs, itersPerEpoch int) error {
	if cluster == nil {
		cluster = DefaultCluster()
	}
	sched, err := faults.Parse(schedule)
	if err != nil {
		return err
	}
	if err := sched.Validate(cluster.topo); err != nil {
		return err
	}
	if m := sched.MaxEpoch(); m >= epochs {
		return fmt.Errorf("laermoe: fault schedule reaches epoch %d but the run has %d epochs", m, epochs)
	}
	for _, ev := range sched {
		if ev.Iter >= itersPerEpoch {
			return fmt.Errorf("laermoe: fault event %q fires at iteration %d but epochs have %d iterations", ev, ev.Iter, itersPerEpoch)
		}
	}
	return nil
}

// SynthesizeFaultSchedule draws a deterministic random fail/rejoin
// schedule over the run horizon — the same cluster, epochs and seed always
// yield the same schedule (node 0 is never failed, and a failed node
// rejoins two epochs later when the horizon allows). The result is in
// OnlineOptions.FaultSchedule syntax; it may be empty when the draw
// produces no failure.
func SynthesizeFaultSchedule(cluster *Cluster, epochs int, seed int64) (string, error) {
	if cluster == nil {
		cluster = DefaultCluster()
	}
	sched, err := faults.Synthesize(faults.SynthConfig{
		Epochs: epochs,
		Nodes:  cluster.topo.NumNodes,
		Seed:   seed,
	})
	if err != nil {
		return "", err
	}
	return sched.String(), nil
}

// PlanRequest is a one-shot planning problem: route the given token
// counts (Routing[device][expert]) on a cluster with the given per-device
// expert capacity.
type PlanRequest struct {
	Cluster  *Cluster
	Routing  [][]int
	Capacity int
	// Model provides the cost-model constants (default
	// "mixtral-8x7b-e8k2").
	Model string
	// Epsilon is the solver's candidate-set size (0 → 2, as evaluated).
	Epsilon int
	// Parallelism bounds the goroutines evaluating independent candidate
	// schemes (values below 2 solve serially). The solved strategy is
	// identical at any setting.
	Parallelism int
	Seed        int64
}

// PlanResult is the solved re-layout strategy.
type PlanResult struct {
	// Replicas[j] is the replica count of expert j (Alg. 4).
	Replicas []int
	// Layout[j][d] is the number of replicas of expert j on device d
	// (Alg. 1).
	Layout [][]int
	// DeviceLoads[d] is the token count device d computes under lite
	// routing (Alg. 3).
	DeviceLoads []int
	// ImbalanceBefore/After are max/mean device loads under static EP
	// routing and under the solved strategy.
	ImbalanceBefore float64
	ImbalanceAfter  float64
	// Cost is the Eq. 2 objective of the solution.
	Cost float64
}

// PlanLayout solves one expert re-layout problem with the paper's
// Algorithms 1-4.
func PlanLayout(req PlanRequest) (*PlanResult, error) {
	if req.Cluster == nil {
		req.Cluster = DefaultCluster()
	}
	if len(req.Routing) == 0 || len(req.Routing[0]) == 0 {
		return nil, fmt.Errorf("laermoe: empty routing matrix")
	}
	if req.Capacity <= 0 {
		return nil, fmt.Errorf("laermoe: capacity must be positive")
	}
	if req.Model == "" {
		req.Model = "mixtral-8x7b-e8k2"
	}
	arch, err := model.ByName(req.Model)
	if err != nil {
		return nil, err
	}
	topo := req.Cluster.topo
	n, e := len(req.Routing), len(req.Routing[0])
	if n != topo.N() {
		return nil, fmt.Errorf("laermoe: routing matrix has %d devices, cluster has %d", n, topo.N())
	}
	r := trace.NewRoutingMatrix(n, e)
	for i := range req.Routing {
		if len(req.Routing[i]) != e {
			return nil, fmt.Errorf("laermoe: ragged routing matrix at row %d", i)
		}
		copy(r.R[i], req.Routing[i])
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	cm := costmodel.New(arch, topo, 8192)
	params := planner.CostParams{
		TokenBytes:          cm.TokenCommBytes(),
		ExpertFLOPsPerToken: cm.TokenExpertFLOPs(),
		FLOPS:               topo.FLOPS,
	}
	solver := planner.NewSolver(topo, req.Capacity, params,
		planner.SolverOptions{Epsilon: req.Epsilon, Parallelism: req.Parallelism, Seed: req.Seed})
	sol, err := solver.Solve(r)
	if err != nil {
		return nil, err
	}

	res := &PlanResult{
		Replicas:    sol.Layout.ReplicaVector(),
		Layout:      sol.Layout.Clone().A,
		DeviceLoads: sol.Dispatch().ReceivedLoads(),
		Cost:        sol.Cost,
	}
	res.ImbalanceAfter = stats.Imbalance(intsToFloats(res.DeviceLoads))
	if static, serr := planner.EPRouting(r, req.Capacity); serr == nil {
		res.ImbalanceBefore = stats.Imbalance(intsToFloats(static.ReceivedLoads()))
	} else {
		res.ImbalanceBefore = res.ImbalanceAfter
	}
	return res, nil
}

// GenerateRouting produces one iteration of synthetic routing
// (Routing[device][expert]) with the library's calibrated dynamics.
func GenerateRouting(cluster *Cluster, experts, tokensPerDevice, topK int, auxWeight float64, seed int64) ([][]int, error) {
	if cluster == nil {
		cluster = DefaultCluster()
	}
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices:         cluster.GPUs(),
		Experts:         experts,
		Layers:          1,
		TokensPerDevice: tokensPerDevice,
		TopK:            topK,
		AuxLossWeight:   auxWeight,
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	return gen.Step()[0].R, nil
}

// LossCurve returns the convergence proxy's (steps, loss) samples for an
// auxiliary-loss weight (Fig. 2 / Fig. 9).
func LossCurve(steps, every int, auxWeight float64) ([]int, []float64) {
	m := training.DefaultConvergenceModel()
	return m.LossCurve(steps, every, auxWeight, 0)
}

// ExperimentOptions configures RunExperimentOpts.
type ExperimentOptions struct {
	// Quick trims sweep dimensions for fast smoke runs.
	Quick bool
	// Parallelism bounds the worker pool fanning independent sweep cells
	// across CPUs: 0 uses GOMAXPROCS, 1 forces serial execution, n > 1
	// uses n workers. The rendered artifact is byte-identical at any
	// setting; only wall-clock time changes.
	Parallelism int
	Seed        int64
}

// RunExperiment regenerates one of the paper's tables/figures by id (see
// ExperimentIDs) and writes the artifact to w, using every available CPU.
func RunExperiment(id string, quick bool, w io.Writer) error {
	return RunExperimentOpts(id, ExperimentOptions{Quick: quick}, w)
}

// RunExperimentOpts is RunExperiment with explicit execution options.
func RunExperimentOpts(id string, opts ExperimentOptions, w io.Writer) error {
	tables, err := experiments.Run(id, experiments.Options{
		Quick:       opts.Quick,
		Parallelism: opts.Parallelism,
		Seed:        opts.Seed,
	})
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Write(w)
	}
	return nil
}

// ExperimentIDs lists the reproducible paper artifacts.
func ExperimentIDs() []string { return experiments.IDs() }

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}
