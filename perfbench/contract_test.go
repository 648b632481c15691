package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMatchesBenchmarkJSON keeps the metrics and workloads the program
// reports in step with the benchmark's declaration at the repository
// root.
func TestMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range workloads {
		if !undeclared[w.name] {
			declared = append(declared, w.name)
		}
	}
	if len(decl.Workloads) != len(declared) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program declares %d", len(decl.Workloads), len(declared))
	}
	for i, w := range decl.Workloads {
		if w.Name != declared[i] {
			t.Errorf("workload %d: declared %q, program has %q", i, w.Name, declared[i])
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, have []metricSpec) {
		if len(declared) != len(have) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(have))
		}
		for i, m := range declared {
			if m.Name != have[i].name || m.Unit != have[i].unit {
				t.Errorf("%s metric %d: declared %s [%s], program reports %s [%s]", kind, i, m.Name, m.Unit, have[i].name, have[i].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}

// TestTailPercentiles pins each workload's declared tail and checks it
// leaves at least minBeyond samples beyond it at the nominal op count,
// and that no higher whole percentile would, except on serve-dense.
func TestTailPercentiles(t *testing.T) {
	want := map[string]int{"serve-dense": 95, "serve-herd": 97, "plan-large": 83, "offline-sim": 77}
	for _, w := range workloads {
		if w.tailPct != want[w.name] {
			t.Errorf("%s: tail p%d, want p%d", w.name, w.tailPct, want[w.name])
		}
		s := make([]float64, w.nominalOps)
		for i := range s {
			s[i] = float64(i)
		}
		if _, beyond := percentile(s, float64(w.tailPct)); beyond < minBeyond {
			t.Errorf("%s: p%d of %d ops leaves %d beyond it", w.name, w.tailPct, w.nominalOps, beyond)
		}
		if _, beyond := percentile(s, float64(w.tailPct+1)); beyond >= minBeyond && w.name != "serve-dense" {
			t.Errorf("%s: p%d leaves %d beyond it; p%d is not the highest", w.name, w.tailPct+1, beyond, w.tailPct)
		}
		if w.ops(10)%w.window != 0 {
			t.Errorf("%s: %d ops is not a whole number of %d-op windows", w.name, w.ops(10), w.window)
		}
	}
}
