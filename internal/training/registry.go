package training

import (
	"fmt"

	"laermoe/internal/forecast"
	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// This file is the single registration site for online-engine policies,
// workloads, predictors and drift models. Everything that used to be a
// hand-kept switch — NewOnlinePlanner's policy check, RunOnline's
// dispatch branch, the CLIs' flag validation, serve's SessionSpec
// validation — resolves through these registries, so a new policy (LLEP
// and score-balance landed this way) registers in exactly one place.

// DispatchEnv is the per-layer context a policy's dispatch function routes
// one iteration's tokens with. The engine reuses one env across layers;
// Scratch persists across calls for policies that reshape the routing
// (score-balance) so steady-state dispatch stays allocation-free.
type DispatchEnv struct {
	Routing  *trace.RoutingMatrix
	Layout   *planner.Layout
	Topo     *topology.Topology
	Capacity int
	// Restored reports that a static-EP checkpoint restore replaced the
	// initial owner layout, after which even the static policy routes by
	// layout.
	Restored bool
	// Scratch is a policy-owned routing matrix reused across dispatch
	// calls (nil until first use).
	Scratch *trace.RoutingMatrix
}

// DispatchFunc routes one layer's observed routing onto the devices.
type DispatchFunc func(env *DispatchEnv) (*planner.Dispatch, error)

// PolicySpec is one replan policy's registry entry: its traits drive the
// engine (replacing per-policy switches), its Dispatch routes tokens each
// iteration.
type PolicySpec struct {
	Name        ReplanPolicy
	Description string

	// Replans: the policy plans re-layouts from observations (static-like
	// policies keep the initial layout and skip PlanEpoch's planning
	// work entirely). Tracks: the policy carries per-layer drift trackers
	// for incremental warm solves. Predictive: the policy forecasts loads
	// at epoch boundaries.
	Replans    bool
	Tracks     bool
	Predictive bool

	// Dispatch routes one layer-iteration; nil defaults to layout-based
	// LiteRouting.
	Dispatch DispatchFunc

	// Validate, when non-nil, vets the full config for policy-specific
	// constraints beyond the engine's own checks.
	Validate func(*OnlineConfig) error
}

// Workload names what an online session plans for.
type Workload string

const (
	// WorkloadTraining is the classic multi-epoch training workload
	// (step-time objective).
	WorkloadTraining Workload = "training"
	// WorkloadInference drives request-level decode traffic through the
	// same planning loop (latency objective).
	WorkloadInference Workload = "inference"
)

// WorkloadSpec is one workload's registry entry.
type WorkloadSpec struct {
	Name        Workload
	Description string
}

// PredictorSpec and DriftSpec mirror the forecast and trace catalogs into
// the registry so every name surface resolves the same way.
type PredictorSpec struct {
	Name        forecast.Kind
	Description string
}

type DriftSpec struct {
	Name        trace.DriftModel
	Description string
}

// liteDispatch is the default dispatch: layout-based Alg. 3 routing.
func liteDispatch(env *DispatchEnv) (*planner.Dispatch, error) {
	return planner.LiteRouting(env.Routing, env.Layout, env.Topo), nil
}

// policyRegistry is ordered: ReplanPolicies() and every "have %v" error
// message list names in registration order.
var policyRegistry = []PolicySpec{
	{
		Name:        ReplanStatic,
		Description: "fixed EP owner layout, never replans (checkpoint-restore on faults)",
		Dispatch: func(env *DispatchEnv) (*planner.Dispatch, error) {
			if !env.Restored {
				return planner.EPRouting(env.Routing, env.Capacity)
			}
			return liteDispatch(env)
		},
	},
	{
		Name:        ReplanScratch,
		Description: "re-solves the layout from scratch every epoch",
		Replans:     true,
		Dispatch:    liteDispatch,
	},
	{
		Name:        ReplanWarm,
		Description: "warm-start incremental re-layout from the previous epoch's solution",
		Replans:     true,
		Tracks:      true,
		Dispatch:    liteDispatch,
	},
	{
		Name:        ReplanPredictive,
		Description: "warm re-layout planned from forecast loads at epoch boundaries",
		Replans:     true,
		Tracks:      true,
		Predictive:  true,
		Dispatch:    liteDispatch,
	},
	{
		Name:        ReplanLLEP,
		Description: "least-loaded replica dispatch at routing time, no re-layout (LLEP)",
		Dispatch: func(env *DispatchEnv) (*planner.Dispatch, error) {
			return planner.LeastLoadedRouting(env.Routing, env.Layout, env.Topo), nil
		},
	},
	{
		Name:        ReplanScoreBalance,
		Description: "blends routing distributions toward uniform before dispatch, no re-layout",
		Dispatch: func(env *DispatchEnv) (*planner.Dispatch, error) {
			env.Scratch = trace.ScoreBalanceInto(env.Scratch, env.Routing, trace.ScoreBalanceBlend)
			return planner.LiteRouting(env.Scratch, env.Layout, env.Topo), nil
		},
	},
}

var workloadRegistry = []WorkloadSpec{
	{Name: WorkloadTraining, Description: "multi-epoch training, step-time objective"},
	{Name: WorkloadInference, Description: "request-level decode traffic, p50/p99 latency objective"},
}

var predictorRegistry = []PredictorSpec{
	{Name: forecast.KindLast, Description: "next window repeats the current one"},
	{Name: forecast.KindEMA, Description: "exponential moving average of past windows"},
	{Name: forecast.KindTrend, Description: "per-expert least-squares trend, extrapolated one window"},
}

var driftRegistry = []DriftSpec{
	{Name: trace.DriftNone, Description: "stationary popularity between epochs"},
	{Name: trace.DriftStabilizing, Description: "drift decays as training converges"},
	{Name: trace.DriftBursty, Description: "per-expert popularity redraws"},
	{Name: trace.DriftMigration, Description: "popularity mass migrates cyclically across experts"},
}

// ResolvePolicy returns a policy's registry entry, failing fast with the
// valid set on an unknown name.
func ResolvePolicy(name ReplanPolicy) (*PolicySpec, error) {
	for i := range policyRegistry {
		if policyRegistry[i].Name == name {
			return &policyRegistry[i], nil
		}
	}
	return nil, fmt.Errorf("training: unknown replan policy %q (have %v)", name, ReplanPolicies())
}

// ResolveWorkload returns a workload's registry entry, failing fast with
// the valid set on an unknown name.
func ResolveWorkload(name Workload) (*WorkloadSpec, error) {
	for i := range workloadRegistry {
		if workloadRegistry[i].Name == name {
			return &workloadRegistry[i], nil
		}
	}
	return nil, fmt.Errorf("training: unknown workload %q (have %v)", name, Workloads())
}

// ResolvePredictor returns a predictor's registry entry, failing fast with
// the valid set on an unknown name.
func ResolvePredictor(name forecast.Kind) (*PredictorSpec, error) {
	for i := range predictorRegistry {
		if predictorRegistry[i].Name == name {
			return &predictorRegistry[i], nil
		}
	}
	return nil, fmt.Errorf("training: unknown predictor %q (have %v)", name, forecast.Kinds())
}

// ResolveDrift returns a drift model's registry entry, failing fast with
// the valid set on an unknown name.
func ResolveDrift(name trace.DriftModel) (*DriftSpec, error) {
	for i := range driftRegistry {
		if driftRegistry[i].Name == name {
			return &driftRegistry[i], nil
		}
	}
	return nil, fmt.Errorf("training: unknown drift model %q (have %v)", name, trace.DriftModels())
}

// PolicySpecs returns the registry in registration order (shared slice;
// callers must not mutate).
func PolicySpecs() []PolicySpec { return policyRegistry }

// WorkloadSpecs returns the workload registry in registration order.
func WorkloadSpecs() []WorkloadSpec { return workloadRegistry }

// PredictorSpecs returns the predictor registry in registration order.
func PredictorSpecs() []PredictorSpec { return predictorRegistry }

// DriftSpecs returns the drift-model registry in registration order.
func DriftSpecs() []DriftSpec { return driftRegistry }

// Workloads lists every registered workload name.
func Workloads() []Workload {
	out := make([]Workload, len(workloadRegistry))
	for i, w := range workloadRegistry {
		out[i] = w.Name
	}
	return out
}
