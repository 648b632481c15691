package trace

import (
	"math/rand"
	"slices"
	"testing"
)

// sortedApportionInto is the historical full-sort reference implementation,
// kept as the oracle the quickselect kernel is pinned against.
func sortedApportionInto(out []int, p []float64, total int, rems []remEntry) {
	n := len(p)
	assigned := 0
	for j, pj := range p {
		exact := pj * float64(total)
		v := int(exact)
		out[j] = v
		assigned += v
		rems[j] = remEntry{j, exact - float64(v)}
	}
	k := total - assigned
	if k <= 0 {
		return
	}
	slices.SortFunc(rems, func(a, b remEntry) int {
		switch {
		case a.frac > b.frac:
			return -1
		case a.frac < b.frac:
			return 1
		default:
			return a.idx - b.idx
		}
	})
	for i := 0; i < k && i < n; i++ {
		out[rems[i].idx]++
	}
	if k > n {
		out[0] += k - n
	}
}

func TestApportionQuickselectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		p := make([]float64, n)
		var sum float64
		for j := range p {
			p[j] = rng.Float64()
			sum += p[j]
		}
		if trial%3 == 0 {
			// Normalized distribution (the production regime).
			for j := range p {
				p[j] /= sum
			}
		}
		total := rng.Intn(4096)
		got := make([]int, n)
		want := make([]int, n)
		apportionInto(got, p, total, make([]remEntry, n))
		sortedApportionInto(want, p, total, make([]remEntry, n))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d total=%d): quickselect %v != sort %v", trial, n, total, got, want)
		}
	}
}

func TestFloat32KernelsProduceValidRouting(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{
		Devices: 4, Experts: 64, Layers: 2, TokensPerDevice: 256, TopK: 2, Seed: 5,
		Float32Kernels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := gen.Step()
	for l, m := range ms {
		if err := m.Validate(); err != nil {
			t.Fatalf("layer %d: %v", l, err)
		}
		if got, want := m.Total(), 4*256*2; got != want {
			t.Fatalf("layer %d: total %d, want %d", l, got, want)
		}
	}
}
