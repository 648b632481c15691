package laermoe

import (
	"bytes"
	"reflect"
	"testing"
)

func TestClusterConstruction(t *testing.T) {
	c, err := NewCluster(ClusterSpec{Nodes: 2, GPUsPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.GPUs() != 8 {
		t.Errorf("GPUs = %d, want 8", c.GPUs())
	}
	if _, err := NewCluster(ClusterSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if err := c.SetStraggler(3, 1.5); err != nil {
		t.Errorf("SetStraggler: %v", err)
	}
	if err := c.SetStraggler(99, 1.5); err == nil {
		t.Error("out-of-range straggler accepted")
	}
	if DefaultCluster().GPUs() != 32 {
		t.Error("default cluster is not 32 GPUs")
	}
	if c.String() == "" {
		t.Error("empty cluster string")
	}
}

func TestModelsAndSystems(t *testing.T) {
	// 6 paper configurations plus the 4 synthetic large-E scale models.
	if len(Models()) != 10 {
		t.Errorf("Models() has %d entries, want 10", len(Models()))
	}
	if len(Systems()) < 6 {
		t.Errorf("Systems() has %d entries", len(Systems()))
	}
	if len(ExperimentIDs()) != 17 {
		t.Errorf("ExperimentIDs() has %d entries, want 17", len(ExperimentIDs()))
	}
}

func TestSimulateLAERBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-cluster simulation")
	}
	laer, err := Simulate(SimOptions{
		System: SystemLAER, Model: "mixtral-8x7b-e8k2",
		Iterations: 6, Warmup: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsdp, err := Simulate(SimOptions{
		System: SystemFSDPEP, Model: "mixtral-8x7b-e8k2",
		Iterations: 6, Warmup: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if laer.Throughput <= fsdp.Throughput {
		t.Errorf("LAER throughput %.0f <= FSDP+EP %.0f", laer.Throughput, fsdp.Throughput)
	}
	if laer.A2AShare >= fsdp.A2AShare {
		t.Errorf("LAER a2a share %.3f >= FSDP+EP %.3f", laer.A2AShare, fsdp.A2AShare)
	}
	if laer.MeanImbalance >= fsdp.MeanImbalance {
		t.Errorf("LAER imbalance %.2f >= FSDP+EP %.2f", laer.MeanImbalance, fsdp.MeanImbalance)
	}
	if laer.PlannerTime <= 0 {
		t.Error("LAER planner time missing")
	}
	if laer.Breakdown["expert"] <= 0 || laer.Breakdown["a2a"] <= 0 {
		t.Error("breakdown missing components")
	}
}

func TestSimulateRejectsUnknowns(t *testing.T) {
	if _, err := Simulate(SimOptions{System: SystemLAER, Model: "nope"}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := Simulate(SimOptions{System: "warp-drive", Model: "mixtral-8x7b-e8k2"}); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestPlanLayoutImproves(t *testing.T) {
	cluster := DefaultCluster()
	routing, err := GenerateRouting(cluster, 8, 4096, 2, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlanLayout(PlanRequest{Cluster: cluster, Routing: routing, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ImbalanceAfter >= res.ImbalanceBefore {
		t.Errorf("planning did not improve balance: %.3f -> %.3f", res.ImbalanceBefore, res.ImbalanceAfter)
	}
	total := 0
	for _, r := range res.Replicas {
		if r < 1 {
			t.Error("expert with no replicas")
		}
		total += r
	}
	if total != cluster.GPUs()*2 {
		t.Errorf("replica slots %d, want %d", total, cluster.GPUs()*2)
	}
	if len(res.DeviceLoads) != cluster.GPUs() {
		t.Errorf("device loads for %d devices", len(res.DeviceLoads))
	}
}

func TestPlanLayoutValidation(t *testing.T) {
	if _, err := PlanLayout(PlanRequest{Routing: nil, Capacity: 2}); err == nil {
		t.Error("empty routing accepted")
	}
	if _, err := PlanLayout(PlanRequest{Routing: [][]int{{1}}, Capacity: 2}); err == nil {
		t.Error("wrong device count accepted")
	}
	bad := make([][]int, 32)
	for i := range bad {
		bad[i] = []int{1, 2}
	}
	if _, err := PlanLayout(PlanRequest{Routing: bad, Capacity: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestLossCurveAPI(t *testing.T) {
	xs, ys := LossCurve(1000, 250, 1e-4)
	if len(xs) != 5 || len(ys) != 5 {
		t.Fatalf("curve has %d points, want 5", len(xs))
	}
	if ys[4] >= ys[0] {
		t.Error("loss curve not decreasing")
	}
}

func TestRunExperimentAPI(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("tab2", true, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no experiment output")
	}
	if err := RunExperiment("nope", true, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestSimulateOnlineAcceptance is the online engine's public acceptance
// criterion: over >= 3 epochs of a drifting trace, warm-start replanning
// reports strictly lower cumulative step time than the static-layout
// baseline, and the report is pinned across runs and across Parallelism
// settings.
func TestSimulateOnlineAcceptance(t *testing.T) {
	base := OnlineOptions{
		Spec: OnlineSessionSpec{
			Model:              "mixtral-8x7b-e8k2",
			IterationsPerEpoch: 4,
			Seed:               7,
		},
		Epochs: 3,
		Drift:  DriftMigration,
	}

	warmOpts := base
	warmOpts.Policy = PolicyWarm
	warm, err := SimulateOnline(warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	staticOpts := base
	staticOpts.Policy = PolicyStatic
	static, err := SimulateOnline(staticOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Epochs) != 3 {
		t.Fatalf("got %d epochs, want 3", len(warm.Epochs))
	}
	if warm.TotalStepTime >= static.TotalStepTime {
		t.Fatalf("warm cumulative step time %.1fs not strictly below static %.1fs",
			warm.TotalStepTime, static.TotalStepTime)
	}
	if warm.TotalMigrations == 0 {
		t.Fatal("warm policy reported no migrations")
	}

	// Determinism: identical options (at any parallelism) pin the output.
	for _, par := range []int{0, 1, 5} {
		opts := warmOpts
		opts.Parallelism = par
		again, err := SimulateOnline(opts)
		if err != nil {
			t.Fatal(err)
		}
		if again.TotalStepTime != warm.TotalStepTime ||
			again.TotalMigrations != warm.TotalMigrations ||
			again.MeanThroughput != warm.MeanThroughput {
			t.Fatalf("parallelism %d: online report not deterministic", par)
		}
		for i := range again.Epochs {
			a, b := again.Epochs[i], warm.Epochs[i]
			a.PlannerTime, b.PlannerTime = 0, 0 // wall clock, not simulated
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("parallelism %d: epoch %d differs: %+v vs %+v", par, i, a, b)
			}
		}
	}
}

// TestSimulateOnlineElastic exercises the fault-injection surface end to
// end through the public API: schedule helpers, the FaultSchedule option,
// per-epoch fault reporting and the derived recovery records.
func TestSimulateOnlineElastic(t *testing.T) {
	if err := ValidateFaultSchedule("1:fail:1,2:join:1", nil, 3, 4); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	for _, bad := range []string{"nonsense", "9:fail:1", "1.9:fail:1", "1:fail:99"} {
		if err := ValidateFaultSchedule(bad, nil, 3, 4); err == nil {
			t.Errorf("schedule %q accepted", bad)
		}
	}
	synth, err := SynthesizeFaultSchedule(nil, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	again, err := SynthesizeFaultSchedule(nil, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if synth != again {
		t.Errorf("synthesis not deterministic: %q vs %q", synth, again)
	}
	if c, err := CheckpointRestoreCost("", nil); err != nil || c <= 0 {
		t.Errorf("CheckpointRestoreCost = %v, %v", c, err)
	}

	if testing.Short() {
		t.Skip("full-cluster simulation")
	}
	rep, err := SimulateOnline(OnlineOptions{
		Spec: OnlineSessionSpec{
			Policy: PolicyWarm, IterationsPerEpoch: 4,
			FaultSchedule: "1:fail:2", Seed: 7,
		},
		Epochs: 3, Drift: DriftStabilizing,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep := rep.Epochs[1]
	if len(ep.FaultEvents) != 1 || ep.FaultEvents[0] != "1:fail:2" {
		t.Fatalf("fault epoch events = %v", ep.FaultEvents)
	}
	if len(ep.FaultDecisions) == 0 {
		t.Fatal("fault epoch carries no recovery decisions")
	}
	if len(rep.Recoveries) != 1 || rep.Recoveries[0].Epoch != 1 {
		t.Fatalf("recoveries = %+v", rep.Recoveries)
	}
	if _, err := SimulateOnline(OnlineOptions{Spec: OnlineSessionSpec{Policy: PolicyWarm, FaultSchedule: "bogus"}}); err == nil {
		t.Fatal("unparseable fault schedule accepted")
	}
}

func TestSimulateOnlineRejectsUnknowns(t *testing.T) {
	if _, err := SimulateOnline(OnlineOptions{Spec: OnlineSessionSpec{Policy: "oracle"}}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := SimulateOnline(OnlineOptions{Drift: "sideways"}); err == nil {
		t.Fatal("unknown drift model accepted")
	}
	if _, err := SimulateOnline(OnlineOptions{Spec: OnlineSessionSpec{Model: "nope"}}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := SimulateOnline(OnlineOptions{Spec: OnlineSessionSpec{Policy: PolicyPredictive, Predictor: "oracle"}}); err == nil {
		t.Fatal("unknown predictor accepted")
	}
}

// TestSimulateOnlinePredictive exercises the forecast-driven policy via
// the public API: the report must carry the predictor name, per-epoch
// forecast diagnostics and per-iteration times, and the first epochs must
// stay reactive while the predictor earns trust.
func TestSimulateOnlinePredictive(t *testing.T) {
	rep, err := SimulateOnline(OnlineOptions{
		Spec: OnlineSessionSpec{
			Policy: PolicyPredictive, Model: "mixtral-8x7b-e8k2",
			IterationsPerEpoch: 4, Predictor: PredictorTrend,
			Seed: 7,
		},
		Epochs: 4, Drift: DriftStabilizing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policy != PolicyPredictive || rep.Predictor != PredictorTrend {
		t.Fatalf("report policy/predictor = %s/%s", rep.Policy, rep.Predictor)
	}
	for i, e := range rep.Epochs {
		if len(e.IterationTimes) != 4 {
			t.Fatalf("epoch %d has %d iteration times, want 4", i, len(e.IterationTimes))
		}
		if i < 2 && e.PredictedLayers != 0 {
			t.Fatalf("epoch %d acted on a forecast before trust could be earned", i)
		}
	}
	if rep.Epochs[1].ForecastError <= 0 {
		t.Fatal("no shadow forecast error measured at epoch 1")
	}
	if rep.MeanForecastError <= 0 {
		t.Fatal("no mean forecast error reported")
	}
	// The warm policy's report must not carry predictor fields.
	warm, err := SimulateOnline(OnlineOptions{
		Spec: OnlineSessionSpec{
			Policy: PolicyWarm, Model: "mixtral-8x7b-e8k2",
			IterationsPerEpoch: 4, Seed: 7,
		},
		Epochs: 2, Drift: DriftStabilizing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Predictor != "" || warm.MeanForecastError != 0 {
		t.Fatalf("warm report carries predictor state: %q/%g", warm.Predictor, warm.MeanForecastError)
	}
}

func TestRelocationCostAPI(t *testing.T) {
	cost, err := RelocationCost("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("relocation cost %.3f not positive", cost)
	}
	if _, err := RelocationCost("nope", nil); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestPoliciesAndDriftModels(t *testing.T) {
	pols := PolicySpecs()
	if len(pols) != 6 {
		t.Fatalf("PolicySpecs() = %v", pols)
	}
	have := map[string]bool{}
	for _, p := range pols {
		have[p.Name] = true
	}
	for _, want := range []string{"llep", "score-balance"} {
		if !have[want] {
			t.Fatalf("PolicySpecs() = %v missing %q", pols, want)
		}
	}
	if len(DriftSpecs()) != 4 {
		t.Fatalf("DriftSpecs() = %v", DriftSpecs())
	}
	if len(PredictorSpecs()) != 3 {
		t.Fatalf("PredictorSpecs() = %v", PredictorSpecs())
	}
}
