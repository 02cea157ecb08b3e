package rewrite

import (
	"math"
	"sync"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// Cleanup is the ε = 0 normalization pass applied alongside the symbolic
// rules: it drops identity rotations, cancels adjacent inverse pairs (h·h,
// cx·cx, t·t†, ...), and merges adjacent z-diagonal phase gates and
// same-axis rotations, emitting the merged gate in the target gate set's
// native form. It is a single linear pass using per-wire stacks, so it is
// cheap enough to run after every accepted transformation. The result is
// always a fresh circuit.
func Cleanup(c *circuit.Circuit, gatesetName string) *circuit.Circuit {
	return freshCopy(CleanupChanged(c, gatesetName))
}

// CleanupFor is Cleanup against a resolved gate set (required for ad-hoc
// sets that are not name-addressable).
func CleanupFor(c *circuit.Circuit, gs *gateset.GateSet) *circuit.Circuit {
	return freshCopy(CleanupChangedFor(c, gs))
}

// freshCopy turns a …Changed result into a circuit the caller owns: a
// zero count means the result is the input itself, so copy it.
func freshCopy(out *circuit.Circuit, changed int) *circuit.Circuit {
	if changed == 0 {
		return out.Clone()
	}
	return out
}

// CleanupChanged is Cleanup plus a change count: the number of
// normalization, cancellation, merge, and reorder events that made the
// output differ from the input. A zero count means nothing changed, and
// the returned circuit is then c itself: the pass counts first and builds
// an output only when there is one to build, so the common no-op call
// allocates almost nothing.
//
// The name is resolved through the gate-set registry once per call so the
// z-phase merge can emit in a custom set's native diagonal vocabulary;
// unknown names keep the historical rz fallback. Callers holding an
// unregistered *gateset.GateSet must use CleanupChangedFor.
func CleanupChanged(c *circuit.Circuit, gatesetName string) (*circuit.Circuit, int) {
	gs, err := gateset.ByName(gatesetName)
	if err != nil {
		gs = nil
	}
	return cleanupChanged(c, gatesetName, gs)
}

// CleanupChangedFor is CleanupChanged against a resolved gate set.
func CleanupChangedFor(c *circuit.Circuit, gs *gateset.GateSet) (*circuit.Circuit, int) {
	return cleanupChanged(c, gs.Name, gs)
}

// cleanerPool recycles the cleanup pass's scratch: the pass runs after
// nearly every search step, in every concurrent window search.
var cleanerPool = sync.Pool{New: func() any {
	return &cleaner{
		ma: linalg.New(2), mb: linalg.New(2), prod: linalg.New(2),
		id: linalg.Identity(2),
	}
}}

func cleanupChanged(c *circuit.Circuit, gatesetName string, gs *gateset.GateSet) (*circuit.Circuit, int) {
	p := cleanerPool.Get().(*cleaner)
	p.reset(c.NumQubits, gatesetName, gs)
	for _, g := range c.Gates {
		p.feed(g)
	}
	out, changed := c, p.changed
	if changed > 0 {
		out = circuit.New(c.NumQubits)
		out.Gates = make([]gate.Gate, 0, len(p.out))
		for i, g := range p.out {
			if p.alive[i] {
				out.Gates = append(out.Gates, g)
			}
		}
	}
	p.release()
	return out, changed
}

type cleaner struct {
	gateset string
	gs      *gateset.GateSet // resolved once; nil for unknown names
	out     []gate.Gate
	alive   []bool
	top     []int // per qubit: index into out of the topmost alive gate, or -1
	// below[belowOff[i]+k] is the previous top of out[i]'s k-th qubit.
	below    []int
	belowOff []int
	changed  int
	dropSeq  []gate.Gate // a merged run's gates in drop (reverse) order
	emitted  []gate.Gate // a merged run's re-emitted gates
	// 2×2 buffers for the inverse-pair test.
	ma, mb, prod, id linalg.Matrix
}

func (p *cleaner) reset(qubits int, gatesetName string, gs *gateset.GateSet) {
	p.gateset, p.gs = gatesetName, gs
	p.out, p.alive = p.out[:0], p.alive[:0]
	p.below, p.belowOff = p.below[:0], p.belowOff[:0]
	p.changed = 0
	if cap(p.top) < qubits {
		p.top = make([]int, qubits)
	}
	p.top = p.top[:qubits]
	for q := range p.top {
		p.top[q] = -1
	}
}

// release drops the scratch's references to the caller's gates and
// returns it to the pool.
func (p *cleaner) release() {
	clear(p.out)
	clear(p.dropSeq)
	clear(p.emitted)
	p.gs = nil
	cleanerPool.Put(p)
}

// push appends g as an alive output gate and records, for each of its
// qubits, the previous top so cancellation can restore the stack.
//
//guoq:hotpath
func (p *cleaner) push(g gate.Gate) {
	idx := len(p.out)
	p.out = append(p.out, g)
	p.alive = append(p.alive, true)
	p.belowOff = append(p.belowOff, len(p.below))
	for _, q := range g.Qubits {
		p.below = append(p.below, p.top[q])
		p.top[q] = idx
	}
}

// drop kills output gate idx and restores the stack tops for its qubits.
//
//guoq:hotpath
func (p *cleaner) drop(idx int) {
	p.alive[idx] = false
	below := p.below[p.belowOff[idx]:]
	for k, q := range p.out[idx].Qubits {
		if p.top[q] == idx {
			p.top[q] = below[k]
		}
	}
}

//guoq:hotpath
func (p *cleaner) feed(g gate.Gate) {
	// Normalize angles (copying the gate only when one moves) and drop
	// identities.
	cloned := false
	for i, v := range g.Params {
		if nv := linalg.NormAngle(v); nv != v {
			if !cloned {
				g, cloned = g.Clone(), true
			}
			g.Params[i] = nv
			p.changed++
		}
	}
	if g.Name == gate.I || g.IsIdentityAngle(1e-12) {
		p.changed++
		return
	}
	switch len(g.Qubits) {
	case 1:
		p.feed1q(g)
	case 2:
		p.feed2q(g)
	default:
		p.push(g)
	}
}

//guoq:hotpath
func (p *cleaner) feed1q(g gate.Gate) {
	q := g.Qubits[0]
	t := p.top[q]
	if t < 0 || !p.alive[t] || len(p.out[t].Qubits) != 1 {
		p.push(g)
		return
	}
	prev := p.out[t]
	pa, pok := gate.ZPhase(prev)
	ga, gok := gate.ZPhase(g)
	// Inverse pair cancellation: U_g · U_prev ∝ I. When one gate is
	// diagonal at every angle (a z-phase gate) and the other at none, the
	// product cannot be ∝ I — that would make the second gate diagonal —
	// so the matrix check is skipped without changing its verdict.
	if !(pok && neverDiagonal(g.Name) || gok && neverDiagonal(prev.Name)) {
		gate.MatrixInto(g, p.ma)
		gate.MatrixInto(prev, p.mb)
		linalg.MulInto(p.prod, p.ma, p.mb)
		if linalg.EqualUpToPhase(p.prod, p.id, 1e-10) {
			p.changed++
			p.drop(t)
			return
		}
	}
	// z-diagonal merging: absorb the whole consecutive diagonal run below
	// the top, then emit the minimal ladder once. (Re-feeding the ladder
	// would loop: the k=3 ladder [s, t] merges straight back to 3π/4.)
	if pok && gok {
		total := pa + ga
		droppedLo := t
		p.dropSeq = append(p.dropSeq[:0], prev)
		p.drop(t)
		for {
			t2 := p.top[q]
			if t2 < 0 || !p.alive[t2] || len(p.out[t2].Qubits) != 1 {
				break
			}
			a2, ok := gate.ZPhase(p.out[t2])
			if !ok {
				break
			}
			total += a2
			p.dropSeq = append(p.dropSeq, p.out[t2])
			droppedLo = t2
			p.drop(t2)
		}
		form, representable := p.zPhaseForm(linalg.NormAngle(total))
		// The merge reproduces the run when the form renders the dropped
		// run plus g gate for gate; the run (kept as is) then counts as a
		// change only if re-pushing it at the end reorders the output,
		// i.e. something alive follows it. A set with no exact native form
		// for the merged angle (a custom finite set without z-phase gates)
		// keeps the run the same way.
		same := !representable || form.Len() == len(p.dropSeq)+1
		for i := 0; representable && same && i < form.Len(); i++ {
			orig := g
			if i < len(p.dropSeq) {
				orig = p.dropSeq[len(p.dropSeq)-1-i]
			}
			same = form.EqualAt(i, q, orig)
		}
		if !same {
			p.changed++
			p.emitted = form.Append(p.emitted[:0], q)
			for _, m := range p.emitted {
				p.push(m)
			}
			return
		}
		for i := droppedLo + 1; i < len(p.out); i++ {
			if p.alive[i] {
				p.changed++
				break
			}
		}
		for i := len(p.dropSeq) - 1; i >= 0; i-- {
			p.push(p.dropSeq[i])
		}
		p.push(g)
		return
	}
	// Same-axis rotation merging (rx·rx, ry·ry), absorbing the whole run.
	// Always a change: at least two gates collapse into at most one.
	if (g.Name == gate.Rx || g.Name == gate.Ry) && prev.Name == g.Name {
		sum := prev.Params[0] + g.Params[0]
		p.changed++
		p.drop(t)
		for {
			t2 := p.top[q]
			if t2 < 0 || !p.alive[t2] || p.out[t2].Name != g.Name {
				break
			}
			sum += p.out[t2].Params[0]
			p.drop(t2)
		}
		sum = linalg.NormAngle(sum)
		if math.Abs(sum) > 1e-12 {
			p.push(gate.New(g.Name, []int{q}, []float64{sum}))
		}
		return
	}
	p.push(g)
}

// neverDiagonal reports the fixed 1-qubit gates whose matrix is never
// diagonal. Parameterised gates other than the z-phases (rx, ry, u2, u3)
// are left out and keep the full inverse-pair check.
func neverDiagonal(n gate.Name) bool {
	switch n {
	case gate.X, gate.Y, gate.H, gate.SX, gate.SXdg:
		return true
	}
	return false
}

//guoq:hotpath
func (p *cleaner) feed2q(g gate.Gate) {
	a, b := g.Qubits[0], g.Qubits[1]
	ta, tb := p.top[a], p.top[b]
	if ta < 0 || ta != tb || !p.alive[ta] {
		p.push(g)
		return
	}
	prev := p.out[ta]
	if prev.Name != g.Name {
		p.push(g)
		return
	}
	sameOrder := prev.Qubits[0] == a && prev.Qubits[1] == b
	swapped := prev.Qubits[0] == b && prev.Qubits[1] == a
	symmetric := g.Name == gate.CZ || g.Name == gate.Swap ||
		g.Name == gate.Rxx || g.Name == gate.Rzz
	if !sameOrder && !(swapped && symmetric) {
		p.push(g)
		return
	}
	switch g.Name {
	case gate.CX, gate.CZ, gate.Swap:
		p.changed++
		p.drop(ta) // self-inverse pair
		return
	case gate.Rxx, gate.Rzz:
		sum := linalg.NormAngle(prev.Params[0] + g.Params[0])
		p.changed++ // two gates collapse into at most one
		p.drop(ta)
		if math.Abs(sum) > 1e-12 {
			p.push(gate.New(g.Name, []int{a, b}, []float64{sum}))
		}
		return
	}
	p.push(g)
}

// zPhaseForm renders a z-rotation angle in the target gate set's native
// diagonal gates. ok = false reports that the set has no exact native form
// for the angle (possible only for custom sets without continuous z-phase
// gates), in which case the caller must keep the original run.
func (p *cleaner) zPhaseForm(theta float64) (form gate.PhaseForm, ok bool) {
	if math.Abs(theta) < 1e-12 {
		return gate.PhaseForm{}, true
	}
	switch p.gateset {
	case "ibmq20":
		return gate.PhaseForm{Rot: gate.U1, Theta: theta}, true
	case "cliffordt":
		if !linalg.IsMultipleOf(theta, math.Pi/4, 1e-9) {
			// Not representable — should not happen for native circuits;
			// fall back to an rz to preserve semantics (callers operating
			// on native Clifford+T circuits never hit this).
			return gate.PhaseForm{Rot: gate.Rz, Theta: theta}, true
		}
		return gate.PhaseLadder(theta), true
	default:
		// nam, ibm-eagle, and ionq emit a native rz, as does any custom or
		// unknown set with a continuous z-rotation. Custom finite sets get
		// the π/4 ladder when their basis carries it.
		if p.gs == nil || p.gs.Contains(gate.Rz) {
			return gate.PhaseForm{Rot: gate.Rz, Theta: theta}, true
		}
		if p.gs.Contains(gate.U1) {
			return gate.PhaseForm{Rot: gate.U1, Theta: theta}, true
		}
		if p.gs.Contains(gate.S) && p.gs.Contains(gate.Sdg) && p.gs.Contains(gate.T) && p.gs.Contains(gate.Tdg) &&
			linalg.IsMultipleOf(theta, math.Pi/4, 1e-9) {
			return gate.PhaseLadder(theta), true
		}
		return gate.PhaseForm{}, false
	}
}
