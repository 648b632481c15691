// Package trace generates and replays the routing workload that drives the
// simulator: per-iteration, per-layer matrices R[i][j] giving the number of
// token-to-expert assignments on device i destined for expert j (Table 1).
//
// The paper's Fig. 1(a) observes that during real Mixtral-8x7B training
// (i) a handful of experts are overloaded at almost every iteration,
// (ii) the hot set drifts over the course of training, and (iii) different
// layers have different hot sets. Lacking the proprietary training traces,
// this package substitutes a calibrated synthetic process with the same
// three properties: each layer carries a vector of expert-popularity logits
// that evolves as a mean-reverting AR(1) random walk with occasional
// hotspot jumps, and an auxiliary-loss weight compresses the logits toward
// uniform (the mechanism by which aux losses balance routing).
//
// Every layer owns an independent, deterministically seeded random stream,
// so layer synthesis parallelizes across the internal/par worker pool with
// byte-identical output at any worker count, and StepInto reuses
// caller-owned routing matrices plus pooled per-call scratch so
// steady-state synthesis allocates nothing.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"laermoe/internal/par"
)

// RoutingMatrix is R: R[i][j] = token assignments on device i routed to
// expert j for one MoE layer in one iteration.
type RoutingMatrix struct {
	N int // devices
	E int // experts
	R [][]int
}

// NewRoutingMatrix returns a zeroed N x E matrix. One slab backs every
// row, so construction costs two allocations regardless of N.
func NewRoutingMatrix(n, e int) *RoutingMatrix {
	slab := make([]int, n*e)
	r := make([][]int, n)
	for i := range r {
		r[i] = slab[i*e : (i+1)*e : (i+1)*e]
	}
	return &RoutingMatrix{N: n, E: e, R: r}
}

// ExpertLoads returns the per-expert totals summed over devices
// (R.sum(axis=0) in the paper's algorithms).
func (m *RoutingMatrix) ExpertLoads() []float64 {
	return m.ExpertLoadsInto(nil)
}

// ExpertLoadsInto writes the per-expert totals into dst, reusing its
// capacity (dst may be nil), and returns it — the non-allocating variant
// of ExpertLoads for per-layer hot paths.
func (m *RoutingMatrix) ExpertLoadsInto(dst []float64) []float64 {
	if cap(dst) < m.E {
		dst = make([]float64, m.E)
	}
	dst = dst[:m.E]
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.E; j++ {
			dst[j] += float64(m.R[i][j])
		}
	}
	return dst
}

// DeviceTotals returns per-device totals (assignments originating on each
// device).
func (m *RoutingMatrix) DeviceTotals() []int {
	out := make([]int, m.N)
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.E; j++ {
			out[i] += m.R[i][j]
		}
	}
	return out
}

// Total returns the total number of assignments in the matrix.
func (m *RoutingMatrix) Total() int {
	t := 0
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.E; j++ {
			t += m.R[i][j]
		}
	}
	return t
}

// Clone returns a deep copy.
func (m *RoutingMatrix) Clone() *RoutingMatrix {
	c := NewRoutingMatrix(m.N, m.E)
	for i := range m.R {
		copy(c.R[i], m.R[i])
	}
	return c
}

// Validate checks dimensions and non-negativity.
func (m *RoutingMatrix) Validate() error {
	if len(m.R) != m.N {
		return fmt.Errorf("trace: matrix has %d rows, want %d", len(m.R), m.N)
	}
	for i, row := range m.R {
		if len(row) != m.E {
			return fmt.Errorf("trace: row %d has %d cols, want %d", i, len(row), m.E)
		}
		for j, v := range row {
			if v < 0 {
				return fmt.Errorf("trace: negative count at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// GeneratorConfig parameterizes the synthetic routing process.
type GeneratorConfig struct {
	Devices         int
	Experts         int
	Layers          int
	TokensPerDevice int // S: tokens per device per micro-batch
	TopK            int // K: assignments per token

	// Skew is the stationary standard deviation of the popularity logits;
	// 0 yields perfectly balanced routing. Calibrated default (1.0) gives
	// max/mean expert-load ratios around 2-4x at aux weight 0, matching
	// Fig. 1(a).
	Skew float64

	// AuxLossWeight is the auxiliary load-balancing loss weight. The
	// effective logits are scaled by 1/(1 + AuxGain*w), so larger weights
	// compress routing toward uniform (GShard/Switch-style behaviour).
	AuxLossWeight float64

	// AuxGain converts an aux-loss weight into logit compression. The
	// default (5e3) makes w=1e-2 nearly uniform while w=1e-4 only mildly
	// rebalances — the regime studied in Fig. 2 and Fig. 9.
	AuxGain float64

	// Persistence is the AR(1) coefficient of the logit random walk in
	// (0,1); closer to 1 means hot experts stay hot longer. Default 0.98.
	Persistence float64

	// JumpProb is the per-layer, per-iteration probability of a hotspot
	// jump (one expert's logit is re-drawn), producing the abrupt shifts
	// visible in Fig. 1(a). Default 0.02; a negative value disables jumps
	// (the zero value means "default", so 0 cannot).
	JumpProb float64

	// DeviceNoise is the relative standard deviation of per-device
	// popularity perturbations (different devices hold different data so
	// their routing differs slightly). Default 0.10.
	DeviceNoise float64

	// Float32Kernels opts layer synthesis into the float32-accumulation
	// softmax kernel (see kernels.go). It perturbs low-order probability
	// bits — and therefore routing counts — so it is strictly opt-in:
	// golden-pinned paths leave it false.
	Float32Kernels bool

	// Parallelism bounds the goroutines synthesizing independent layers in
	// Step/StepInto: 0 uses GOMAXPROCS, 1 forces serial. Layers own
	// independent random streams, so the trace is identical at any setting.
	Parallelism int

	Seed int64
}

func (c *GeneratorConfig) withDefaults() GeneratorConfig {
	out := *c
	if out.AuxGain == 0 {
		out.AuxGain = 5e3
	}
	if out.Persistence == 0 {
		out.Persistence = 0.98
	}
	if out.JumpProb == 0 {
		out.JumpProb = 0.02
	} else if out.JumpProb < 0 {
		out.JumpProb = 0
	}
	if out.DeviceNoise == 0 {
		out.DeviceNoise = 0.10
	}
	if out.Skew == 0 {
		out.Skew = 1.0
	}
	return out
}

// Validate reports configuration errors.
func (c *GeneratorConfig) Validate() error {
	switch {
	case c.Devices <= 0 || c.Experts <= 0 || c.Layers <= 0:
		return fmt.Errorf("trace: non-positive dimensions (N=%d E=%d L=%d)", c.Devices, c.Experts, c.Layers)
	case c.TokensPerDevice <= 0:
		return fmt.Errorf("trace: non-positive tokens per device")
	case c.TopK <= 0 || c.TopK > c.Experts:
		return fmt.Errorf("trace: top-k %d out of range for %d experts", c.TopK, c.Experts)
	case c.Skew < 0:
		return fmt.Errorf("trace: negative skew")
	}
	return nil
}

// layerState is one layer's popularity process: its logits and the random
// stream that evolves and samples them. Streams are seeded independently
// per layer (splitmix64 over the generator seed), which is what lets layer
// synthesis fan across workers without changing the trace.
type layerState struct {
	rng    *rand.Rand
	logits []float64
}

// Generator produces one RoutingMatrix per layer per call to Step,
// advancing the underlying popularity process between iterations.
type Generator struct {
	cfg    GeneratorConfig
	layers []layerState
	iter   int

	scratch genScratch // serial-path scratch (parallel workers use the pool)
	shifted []float64  // ApplyDrift migration scratch
}

// layerSeed derives layer l's independent stream seed from the generator
// seed via a splitmix64 finalizer, so nearby seeds (and nearby layers)
// decorrelate fully.
func layerSeed(seed int64, l int) int64 {
	z := uint64(seed) + (uint64(l)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// NewGenerator builds a generator; the initial logits are drawn from the
// stationary distribution so the first iteration is already imbalanced.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	full := cfg.withDefaults()
	g := &Generator{cfg: full}
	g.layers = make([]layerState, full.Layers)
	for l := range g.layers {
		st := &g.layers[l]
		st.rng = rand.New(rand.NewSource(layerSeed(full.Seed, l)))
		st.logits = make([]float64, full.Experts)
		for j := range st.logits {
			st.logits[j] = st.rng.NormFloat64() * full.Skew
		}
	}
	return g, nil
}

// Config returns the (defaulted) generator configuration.
func (g *Generator) Config() GeneratorConfig { return g.cfg }

// Iteration returns the number of completed Step calls.
func (g *Generator) Iteration() int { return g.iter }

// Step advances one training iteration and returns freshly allocated
// routing matrices for every layer. Hot paths that replay many iterations
// should call StepInto with a reused slice instead.
func (g *Generator) Step() []*RoutingMatrix {
	return g.StepInto(make([]*RoutingMatrix, g.cfg.Layers))
}

// StepInto advances one training iteration, writing each layer's routing
// matrix into dst (grown if needed; nil or wrongly shaped entries are
// replaced with fresh matrices) and returning it. With correctly shaped
// matrices supplied, steady-state synthesis performs no allocation.
// Layers fan across the worker pool per GeneratorConfig.Parallelism; the
// per-layer random streams make the result identical at any worker count.
func (g *Generator) StepInto(dst []*RoutingMatrix) []*RoutingMatrix {
	L := g.cfg.Layers
	if cap(dst) < L {
		grown := make([]*RoutingMatrix, L)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:L]
	workers := par.Workers(g.cfg.Parallelism)
	if workers <= 1 {
		for l := 0; l < L; l++ {
			g.evolveLayer(l)
			dst[l] = g.sampleLayerInto(dst[l], l, &g.scratch)
		}
	} else {
		// Errors are impossible here (the synth closure is total); ForEach
		// is used purely for its bounded deterministic fan-out.
		_ = par.ForEach(workers, L, func(l int) error {
			g.evolveLayer(l)
			sc := genScratchPool.Get().(*genScratch)
			dst[l] = g.sampleLayerInto(dst[l], l, sc)
			genScratchPool.Put(sc)
			return nil
		})
	}
	g.iter++
	return dst
}

// evolveLayer applies the mean-reverting AR(1) update with hotspot jumps,
// drawing only from the layer's own stream.
func (g *Generator) evolveLayer(l int) {
	st := &g.layers[l]
	rho := g.cfg.Persistence
	// Innovation variance chosen so the stationary std stays at Skew:
	// sigma^2 = Skew^2 * (1 - rho^2).
	sigma := g.cfg.Skew * math.Sqrt(1-rho*rho)
	for j := range st.logits {
		st.logits[j] = rho*st.logits[j] + sigma*st.rng.NormFloat64()
	}
	if st.rng.Float64() < g.cfg.JumpProb {
		j := st.rng.Intn(g.cfg.Experts)
		st.logits[j] = st.rng.NormFloat64() * g.cfg.Skew * 1.5
	}
}

// ExpertProbabilities returns the current global routing distribution of a
// layer after aux-loss compression (mainly for inspection and tests).
func (g *Generator) ExpertProbabilities(layer int) []float64 {
	out := make([]float64, g.cfg.Experts)
	g.compressedInto(out, layer)
	softmaxInto(out, out)
	return out
}

// compressedInto writes the aux-compressed logits of a layer into dst
// (len Experts).
func (g *Generator) compressedInto(dst []float64, layer int) {
	scale := 1.0 / (1.0 + g.cfg.AuxGain*g.cfg.AuxLossWeight)
	for j, v := range g.layers[layer].logits {
		dst[j] = v * scale
	}
}

// genScratch is the working set of one layer synthesis: the compressed
// base logits, the per-device perturbed logits/probabilities (in place)
// and the apportion remainder entries. Parallel workers recycle instances
// through genScratchPool; the serial path uses the generator's own.
type genScratch struct {
	base  []float64
	probs []float64
	rems  []remEntry
}

var genScratchPool = sync.Pool{New: func() interface{} { return new(genScratch) }}

func (sc *genScratch) resize(e int) {
	if cap(sc.base) < e {
		sc.base = make([]float64, e)
		sc.probs = make([]float64, e)
		sc.rems = make([]remEntry, e)
	}
	sc.base = sc.base[:e]
	sc.probs = sc.probs[:e]
	sc.rems = sc.rems[:e]
}

// sampleLayerInto converts the layer's popularity distribution into an
// integer routing matrix, reusing m when its shape matches. Each device
// perturbs the global distribution slightly (different data shards), then
// assigns exactly TokensPerDevice*TopK assignments using largest-remainder
// rounding so row sums are exact.
func (g *Generator) sampleLayerInto(m *RoutingMatrix, l int, sc *genScratch) *RoutingMatrix {
	n, e := g.cfg.Devices, g.cfg.Experts
	if m == nil || m.N != n || m.E != e {
		m = NewRoutingMatrix(n, e)
	}
	sc.resize(e)
	g.compressedInto(sc.base, l)
	rng := g.layers[l].rng
	perDevice := g.cfg.TokensPerDevice * g.cfg.TopK
	softmax := softmaxInto
	if g.cfg.Float32Kernels {
		softmax = softmax32Into
	}
	for i := 0; i < n; i++ {
		for j := range sc.probs {
			sc.probs[j] = sc.base[j] + rng.NormFloat64()*g.cfg.DeviceNoise
		}
		softmax(sc.probs, sc.probs)
		apportionInto(m.R[i], sc.probs, perDevice, sc.rems)
	}
	return m
}

// remEntry carries one expert's fractional remainder during apportioning.
type remEntry struct {
	idx  int
	frac float64
}

// apportion distributes total assignments across experts proportionally to
// p with exact total (largest-remainder method, deterministic).
func apportion(p []float64, total int) []int {
	out := make([]int, len(p))
	apportionInto(out, p, total, make([]remEntry, len(p)))
	return out
}

// apportionInto is apportion writing into out (len(p)) with caller-owned
// remainder scratch (len(p)). The remainder is handed to the largest
// fractional parts under (fraction desc, index asc) — a strict total order
// (indices are unique), so the winning set is unique and selecting it by
// deterministic quickselect (selectTopRems, O(E) average) is
// output-identical to the historical full sort and to a repeated linear
// scan with the same stable index tie-break.
func apportionInto(out []int, p []float64, total int, rems []remEntry) {
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
	if k < n {
		selectTopRems(rems, k)
		for i := 0; i < k; i++ {
			out[rems[i].idx]++
		}
		return
	}
	for i := 0; i < n; i++ {
		out[rems[i].idx]++
	}
	if k > n {
		// Degenerate inputs (p summing well below 1) leave more remainder
		// than experts; the historical scan dumped the excess on index 0.
		out[0] += k - n
	}
}

func softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	softmaxInto(out, logits)
	return out
}

// softmaxInto writes softmax(logits) into dst; dst may alias logits.
func softmaxInto(dst, logits []float64) {
	maxL := math.Inf(-1)
	for _, v := range logits {
		if v > maxL {
			maxL = v
		}
	}
	var sum float64
	for i, v := range logits {
		dst[i] = math.Exp(v - maxL)
		sum += dst[i]
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// Balanced returns a perfectly balanced routing matrix for the given shape
// (the "balanced" condition of Fig. 1(b)): every device splits its
// assignments evenly across experts, remainders round-robin by device so
// column sums stay even too.
func Balanced(devices, experts, tokensPerDevice, topK int) *RoutingMatrix {
	m := NewRoutingMatrix(devices, experts)
	perDevice := tokensPerDevice * topK
	for i := 0; i < devices; i++ {
		base := perDevice / experts
		rem := perDevice % experts
		for j := 0; j < experts; j++ {
			m.R[i][j] = base
			if (j+i)%experts < rem {
				m.R[i][j]++
			}
		}
	}
	return m
}
