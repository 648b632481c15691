// Wire form of the drift-delta view: the serializable sparse observation
// update a client posts instead of a dense routing matrix once its expert
// loads have stabilized. The paper's core observation (and *Prediction Is
// All MoE Needs*) is that expert loads are mostly stationary between
// adjacent observation windows, so the set of changed (device, expert)
// cells is far smaller than the dense E×N matrix. A WireDelta carries, per
// changed expert, the flat (device, diff) pairs of that expert's changed
// column cells, so a stationary epoch serializes in O(changed cells) bytes
// instead of O(N·E).
//
// Applying the wire delta of next−prev onto (a copy of) prev reproduces
// next exactly, cell for cell — FuzzWireDeltaRoundTrip pins that through a
// JSON round-trip. Check-then-Apply splits validation from mutation so a
// caller holding several layers can verify all of them before mutating any
// (cross-layer atomicity for a retained per-session baseline).
package trace

import (
	"fmt"
)

// WireExpertDelta is one changed expert's column update: Cells holds flat
// (device, diff) pairs in ascending device order.
type WireExpertDelta struct {
	Expert int   `json:"e"`
	Cells  []int `json:"c"`
}

// WireDelta is the serializable sparse difference between two consecutive
// routing matrices of one layer. Experts appear in ascending order; an
// empty (or nil) Experts list is a valid delta meaning "unchanged".
type WireDelta struct {
	Experts []WireExpertDelta `json:"experts,omitempty"`
}

// Cells returns the number of changed cells the delta carries.
func (w *WireDelta) Cells() int {
	total := 0
	for _, x := range w.Experts {
		total += len(x.Cells) / 2
	}
	return total
}

// Validate checks the delta's structure against an n-device, e-expert
// matrix shape: expert indices in range and strictly ascending, per-expert
// cell lists non-empty with even length, device indices in range and
// strictly ascending within an expert, and no zero diffs (a zero diff is
// not a change; rejecting it keeps the encoding canonical). It does not
// look at matrix contents — Check does.
func (w *WireDelta) Validate(n, e int) error {
	prevExpert := -1
	for _, x := range w.Experts {
		if x.Expert < 0 || x.Expert >= e {
			return fmt.Errorf("trace: wire delta expert %d out of range [0,%d)", x.Expert, e)
		}
		if x.Expert <= prevExpert {
			return fmt.Errorf("trace: wire delta experts not strictly ascending at %d", x.Expert)
		}
		prevExpert = x.Expert
		if len(x.Cells) == 0 || len(x.Cells)%2 != 0 {
			return fmt.Errorf("trace: wire delta expert %d has %d cell values, want a non-empty even count", x.Expert, len(x.Cells))
		}
		prevDev := -1
		for i := 0; i < len(x.Cells); i += 2 {
			dev, diff := x.Cells[i], x.Cells[i+1]
			if dev < 0 || dev >= n {
				return fmt.Errorf("trace: wire delta expert %d device %d out of range [0,%d)", x.Expert, dev, n)
			}
			if dev <= prevDev {
				return fmt.Errorf("trace: wire delta expert %d devices not strictly ascending at %d", x.Expert, dev)
			}
			prevDev = dev
			if diff == 0 {
				return fmt.Errorf("trace: wire delta expert %d device %d carries a zero diff", x.Expert, dev)
			}
		}
	}
	return nil
}

// Check verifies the delta can be applied to m: structurally valid for m's
// shape and no cell driven negative. m is not modified.
func (w *WireDelta) Check(m *RoutingMatrix) error {
	if err := w.Validate(m.N, m.E); err != nil {
		return err
	}
	for _, x := range w.Experts {
		for i := 0; i < len(x.Cells); i += 2 {
			dev, diff := x.Cells[i], x.Cells[i+1]
			if m.R[dev][x.Expert]+diff < 0 {
				return fmt.Errorf("trace: wire delta drives cell (%d,%d) negative (%d%+d)", dev, x.Expert, m.R[dev][x.Expert], diff)
			}
		}
	}
	return nil
}

// Apply adds the delta to m in place. Callers must have run Check (on this
// delta against this matrix) first; Apply itself performs no validation so
// a multi-layer caller can make the whole batch atomic: check every layer,
// then apply every layer.
func (w *WireDelta) Apply(m *RoutingMatrix) {
	for _, x := range w.Experts {
		for i := 0; i < len(x.Cells); i += 2 {
			m.R[x.Cells[i]][x.Expert] += x.Cells[i+1]
		}
	}
}

// WireDiff computes the wire form of next − prev directly from a retained
// matrix and a dense row set (the shape a JSON observation decodes to).
// rows must be prev's shape; the caller has validated that (it is the
// serve layer's dense-path validation). The result is canonical: experts
// ascending, devices ascending within each expert.
func WireDiff(prev *RoutingMatrix, rows [][]int) *WireDelta {
	// Pass 1: count changed cells per expert so pass 2 can slab-allocate.
	counts := make([]int, prev.E)
	changedExperts := 0
	for i := 0; i < prev.N; i++ {
		prow, nrow := prev.R[i], rows[i]
		for j, nv := range nrow {
			if nv != prow[j] {
				if counts[j] == 0 {
					changedExperts++
				}
				counts[j]++
			}
		}
	}
	w := &WireDelta{}
	if changedExperts == 0 {
		return w
	}
	w.Experts = make([]WireExpertDelta, 0, changedExperts)
	// Pass 2: one cell slab, sliced per expert; filling device-major per
	// expert keeps devices ascending.
	slab := make([]int, 0, 2*totalCells(counts))
	offsets := make([]int, prev.E)
	for j := 0; j < prev.E; j++ {
		if counts[j] == 0 {
			continue
		}
		start := len(slab)
		slab = slab[:start+2*counts[j]]
		offsets[j] = start
		w.Experts = append(w.Experts, WireExpertDelta{Expert: j, Cells: slab[start : start+2*counts[j] : start+2*counts[j]]})
	}
	fill := make([]int, prev.E)
	for i := 0; i < prev.N; i++ {
		prow, nrow := prev.R[i], rows[i]
		for j, nv := range nrow {
			if nv != prow[j] {
				at := offsets[j] + 2*fill[j]
				slab[at], slab[at+1] = i, nv-prow[j]
				fill[j]++
			}
		}
	}
	return w
}

func totalCells(counts []int) int {
	t := 0
	for _, c := range counts {
		t += c
	}
	return t
}
