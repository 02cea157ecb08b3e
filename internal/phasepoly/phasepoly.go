// Package phasepoly implements phase folding (Nam et al.'s rotation
// merging), the standard phase-polynomial optimization over {CX, X,
// z-rotations} regions: inside such a region each qubit carries an affine
// function (parity) of the region's input basis, so z-rotations applied to
// equal parities merge additively, wherever they sit in the region.
//
// This is the repository's PyZX proxy (see DESIGN.md §3): like PyZX's
// ZX-calculus pipeline on these benchmarks, it is excellent at reducing T
// count and never changes the two-qubit gate count — the exact behavioural
// profile Figs. 12–14 of the paper rely on.
package phasepoly

import (
	"math"
	"slices"
	"sync"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// phaseForm renders a z-rotation in the gate set's native diagonal gates.
// gs is the resolved set (nil for unknown names, which keep the historical
// rz fallback). A form can be compared with the gates it would replace
// before any gate is built.
func phaseForm(theta float64, gatesetName string, gs *gateset.GateSet) gate.PhaseForm {
	theta = linalg.NormAngle(theta)
	if math.Abs(theta) < 1e-12 {
		return gate.PhaseForm{}
	}
	switch gatesetName {
	case "ibmq20":
		return gate.PhaseForm{Rot: gate.U1, Theta: theta}
	case "cliffordt":
		if !linalg.IsMultipleOf(theta, math.Pi/4, 1e-9) {
			return gate.PhaseForm{Rot: gate.Rz, Theta: theta}
		}
		return gate.PhaseLadder(theta)
	default:
		// Custom sets emit whatever diagonal vocabulary they carry; the
		// capability pre-check in foldChanged guarantees one exists and
		// that π/4-ladder-only sets never see a non-multiple total.
		if gs == nil || gs.Contains(gate.Rz) {
			return gate.PhaseForm{Rot: gate.Rz, Theta: theta}
		}
		if gs.Contains(gate.U1) {
			return gate.PhaseForm{Rot: gate.U1, Theta: theta}
		}
		return gate.PhaseLadder(theta)
	}
}

// Fold performs one global phase-folding pass, emitting the result in the
// named gate set's diagonal vocabulary. Non-diagonal gates are untouched;
// two-qubit gate count is exactly preserved. The result is always a fresh
// circuit.
func Fold(c *circuit.Circuit, gatesetName string) *circuit.Circuit {
	return freshCopy(FoldChanged(c, gatesetName))
}

// FoldFor is Fold against a resolved gate set (required for ad-hoc sets
// that are not name-addressable).
func FoldFor(c *circuit.Circuit, gs *gateset.GateSet) *circuit.Circuit {
	return freshCopy(FoldChangedFor(c, gs))
}

// freshCopy turns a …Changed result into a circuit the caller owns: a
// zero count means the result is the input itself, so copy it.
func freshCopy(out *circuit.Circuit, changed int) *circuit.Circuit {
	if changed == 0 {
		return out.Clone()
	}
	return out
}

// FoldChanged is Fold plus a change count: the number of phase gates
// absorbed into a merge site plus the number of merge sites whose
// re-emitted ladder differs from the original gate. A zero count means the
// output would be structurally identical (circuit.Equal) to the input, and
// the returned circuit is then c itself: the pass counts first and builds
// an output only when the count is positive.
func FoldChanged(c *circuit.Circuit, gatesetName string) (*circuit.Circuit, int) {
	gs, err := gateset.ByName(gatesetName)
	if err != nil {
		gs = nil
	}
	return foldChanged(c, gatesetName, gs)
}

// FoldChangedFor is FoldChanged against a resolved gate set.
func FoldChangedFor(c *circuit.Circuit, gs *gateset.GateSet) (*circuit.Circuit, int) {
	return foldChanged(c, gs.Name, gs)
}

func foldChanged(c *circuit.Circuit, gatesetName string, gs *gateset.GateSet) (*circuit.Circuit, int) {
	// Capability pre-check for custom sets: without a continuous z-rotation
	// the merged totals can only be re-emitted over the π/4 ladder, which is
	// exact only when every absorbed rotation is a π/4 multiple (native
	// finite circuits always are); a set with no diagonal vocabulary at all
	// cannot fold.
	if gs != nil && !gs.Builtin() && !gs.Contains(gate.Rz) && !gs.Contains(gate.U1) {
		if !(gs.Contains(gate.S) && gs.Contains(gate.Sdg) && gs.Contains(gate.T) && gs.Contains(gate.Tdg)) {
			return c, 0
		}
		for _, g := range c.Gates {
			if a, ok := gate.ZPhase(g); ok && !linalg.IsMultipleOf(a, math.Pi/4, 1e-9) {
				return c, 0
			}
		}
	}
	f := folderPool.Get().(*folder)
	f.scan(c)
	changed := f.count(c, gatesetName, gs)
	out := c
	if changed > 0 {
		out = circuit.New(c.NumQubits)
		for i, g := range c.Gates {
			if f.drop[i] {
				continue
			}
			if s := f.site[i]; s != 0 {
				b := &f.buckets[s-1]
				out.Gates = phaseForm(b.theta(), gatesetName, gs).Append(out.Gates, b.firstQubit)
				continue
			}
			out.Gates = append(out.Gates, g.Clone())
		}
	}
	folderPool.Put(f)
	return out, changed
}

// folderPool recycles the fold pass's scratch: the pass runs after nearly
// every search step, in every concurrent window search.
var folderPool = sync.Pool{New: func() any { return new(folder) }}

// folder is the scratch of one fold pass. Each qubit carries an affine
// function of the tracked variables: a parity row of w words (a bitset of
// variable indices) plus a constant bit. Every untrackable gate gives its
// qubits fresh variables, so a pre-scan sizes w for all of them.
type folder struct {
	w       int
	rows    []uint64 // qubit q's parity is rows[q*w : (q+1)*w]
	neg     []bool   // qubit q's constant bit
	nextVar int
	buckets []bucket
	// bucketRows[b*w : (b+1)*w] is the parity bucket b collects; slots is
	// an open-addressing table over it (bucket index + 1, 0 = empty).
	bucketRows []uint64
	slots      []int32
	drop       []bool  // phase gate i merges into an earlier site
	site       []int32 // phase gate i hosts bucket site[i]-1 (0 = none)
}

// bucket collects the z-rotations applied to one parity; it is emitted at
// its first gate's position.
type bucket struct {
	firstConst bool
	firstQubit int
	total      float64
}

// theta is the bucket's merged rotation angle on its first qubit.
func (b *bucket) theta() float64 {
	if b.firstConst {
		return -b.total
	}
	return b.total
}

// scan tracks parities through c, filling buckets, drop and site.
//
//guoq:hotpath
func (f *folder) scan(c *circuit.Circuit) {
	n := c.NumQubits
	vars, phases := n, 0
	for _, g := range c.Gates {
		if _, ok := gate.ZPhase(g); ok {
			phases++
		} else if g.Name != gate.CX && g.Name != gate.X {
			vars += len(g.Qubits)
		}
	}
	f.w = (vars + 63) / 64
	f.rows = resize(f.rows, n*f.w)
	f.neg = resize(f.neg, n)
	clear(f.neg)
	f.nextVar = 0
	for q := 0; q < n; q++ {
		f.fresh(q)
	}
	f.buckets = f.buckets[:0]
	f.bucketRows = f.bucketRows[:0]
	slots := 1
	for slots < 2*phases {
		slots <<= 1
	}
	f.slots = resize(f.slots, slots)
	clear(f.slots)
	f.drop = resize(f.drop, len(c.Gates))
	clear(f.drop)
	f.site = resize(f.site, len(c.Gates))
	clear(f.site)

	for i, g := range c.Gates {
		if a, ok := gate.ZPhase(g); ok {
			q := g.Qubits[0]
			contrib := a
			if f.neg[q] {
				contrib = -a
			}
			if b := f.bucketOf(q); b < len(f.buckets) {
				f.buckets[b].total += contrib
				f.drop[i] = true
			} else {
				f.buckets = append(f.buckets, bucket{firstConst: f.neg[q], firstQubit: q, total: contrib})
				f.site[i] = int32(len(f.buckets))
			}
			continue
		}
		switch g.Name {
		case gate.CX:
			cq, tq := g.Qubits[0], g.Qubits[1]
			src, dst := f.row(cq), f.row(tq)
			for k := range dst {
				dst[k] ^= src[k]
			}
			f.neg[tq] = f.neg[tq] != f.neg[cq]
		case gate.X:
			q := g.Qubits[0]
			f.neg[q] = !f.neg[q]
		default:
			// Untrackable gate: its qubits leave the affine regime; give
			// them fresh variables (a new epoch for those wires).
			for _, q := range g.Qubits {
				f.fresh(q)
			}
		}
	}
}

func (f *folder) row(q int) []uint64 { return f.rows[q*f.w : (q+1)*f.w] }

// fresh gives qubit q the next unused variable as its parity.
func (f *folder) fresh(q int) {
	r := f.row(q)
	clear(r)
	r[f.nextVar/64] = 1 << uint(f.nextVar%64)
	f.neg[q] = false
	f.nextVar++
}

// bucketOf returns the bucket collecting qubit q's current parity. When
// there is none it registers the parity and returns len(f.buckets), the
// index the caller's new bucket takes.
//
//guoq:hotpath
func (f *folder) bucketOf(q int) int {
	r := f.row(q)
	h := uint64(14695981039346656037)
	for _, w := range r {
		h = (h ^ w) * 1099511628211
		h ^= h >> 29
	}
	mask := uint64(len(f.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := f.slots[i]
		if s == 0 {
			f.slots[i] = int32(len(f.buckets) + 1)
			f.bucketRows = append(f.bucketRows, r...)
			return len(f.buckets)
		}
		b := int(s - 1)
		if slices.Equal(f.bucketRows[b*f.w:(b+1)*f.w], r) {
			return b
		}
	}
}

// count returns the change count of the fold scan recorded: the absorbed
// phase gates plus the sites that do not re-emit their own gate, or zero
// when the output would reproduce the input gate for gate (a merged run
// can re-emit exactly the gates it absorbed: adjacent same-parity phases
// whose ladder equals them).
//
//guoq:hotpath
func (f *folder) count(c *circuit.Circuit, gatesetName string, gs *gateset.GateSet) int {
	changed, pos := 0, 0
	identical := true
	for i, g := range c.Gates {
		if f.drop[i] {
			changed++
			continue
		}
		s := f.site[i]
		if s == 0 {
			identical = identical && pos < len(c.Gates) && g.Equal(c.Gates[pos])
			pos++
			continue
		}
		b := &f.buckets[s-1]
		form := phaseForm(b.theta(), gatesetName, gs)
		if !(form.Len() == 1 && form.EqualAt(0, b.firstQubit, g)) {
			changed++
		}
		for k := 0; k < form.Len(); k++ {
			identical = identical && pos < len(c.Gates) && form.EqualAt(k, b.firstQubit, c.Gates[pos])
			pos++
		}
	}
	if identical && pos == len(c.Gates) {
		return 0
	}
	return changed
}

// resize returns s with length n, reusing its storage when it is large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
