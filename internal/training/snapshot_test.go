package training

import (
	"testing"

	"laermoe/internal/faults"
	"laermoe/internal/model"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

func digestConfig(policy ReplanPolicy) OnlineConfig {
	return OnlineConfig{
		Policy: policy,
		Arch:   model.Mixtral8x7B,
		Topo:   topology.Default(),
		Epochs: 2, IterationsPerEpoch: 4,
		GlobalBatchTokens: 1 << 19,
		Seed:              11,
	}
}

// feedEpochs drives a planner through the engine's own observation
// process for n epochs and returns the digest after each epoch.
func feedEpochs(t *testing.T, p *OnlinePlanner, n int, seed int64) []uint64 {
	t.Helper()
	gen, err := ObservationGenerator(trace.GeneratorConfig{
		Devices: p.Devices(), Experts: p.Experts(), Layers: p.Layers(),
		TokensPerDevice: p.Setup().TokensPerDev, TopK: p.arch.TopK,
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]uint64, n)
	for e := 0; e < n; e++ {
		if e > 0 {
			if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration}); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := p.PlanEpoch(gen.Step()); err != nil {
			t.Fatal(err)
		}
		p.Summarize()
		digests[e] = p.StateDigest()
	}
	return digests
}

// TestStateDigestDeterministic: two planners built from the same config
// and fed the same observation sequence agree on every per-epoch digest;
// the digest changes as state advances.
func TestStateDigestDeterministic(t *testing.T) {
	for _, policy := range []ReplanPolicy{ReplanWarm, ReplanPredictive} {
		t.Run(string(policy), func(t *testing.T) {
			a, err := NewOnlinePlanner(digestConfig(policy))
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewOnlinePlanner(digestConfig(policy))
			if err != nil {
				t.Fatal(err)
			}
			if a.StateDigest() != b.StateDigest() {
				t.Fatal("fresh planners with identical configs disagree")
			}
			initial := a.StateDigest()
			da := feedEpochs(t, a, 3, 11)
			db := feedEpochs(t, b, 3, 11)
			for e := range da {
				if da[e] != db[e] {
					t.Fatalf("epoch %d digests diverge: %#x vs %#x", e, da[e], db[e])
				}
			}
			// The first epoch replans every layer away from static EP, so
			// the digest must move.
			if da[0] == initial {
				t.Fatal("digest unchanged after the first observed epoch")
			}
		})
	}
}

// TestStateDigestSeparatesStreams: planners fed different observation
// streams end on different digests (the tripwire actually trips).
func TestStateDigestSeparatesStreams(t *testing.T) {
	a, err := NewOnlinePlanner(digestConfig(ReplanWarm))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewOnlinePlanner(digestConfig(ReplanWarm))
	if err != nil {
		t.Fatal(err)
	}
	da := feedEpochs(t, a, 2, 11)
	db := feedEpochs(t, b, 2, 99) // different trace seed
	if da[len(da)-1] == db[len(db)-1] {
		t.Fatal("different observation streams produced identical digests")
	}
}

// TestStateDigestTracksFaults: absorbing a fault event changes the
// digest (availability mask and repair accounting are covered).
func TestStateDigestTracksFaults(t *testing.T) {
	p, err := NewOnlinePlanner(digestConfig(ReplanWarm))
	if err != nil {
		t.Fatal(err)
	}
	feedEpochs(t, p, 1, 11)
	before := p.StateDigest()
	if _, err := p.ApplyFaults([]faults.Event{{Kind: faults.NodeFail, Node: 1}}); err != nil {
		t.Fatal(err)
	}
	if p.StateDigest() == before {
		t.Fatal("digest unchanged after a node failure")
	}
}
