package phasepoly

import (
	"math"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// The straightforward allocating phase-folding pass, kept as a test-only
// reference: the pooled pass must reproduce its change counts and outputs
// exactly, so that seeded searches take the same trajectory.

// refParityState tracks, per qubit, an affine function of tracked variables:
// a bitset of variable indices plus a constant bit.
type refParityState struct {
	bits []uint64
	c    bool
}

func (p refParityState) clone(words int) refParityState {
	b := make([]uint64, words)
	copy(b, p.bits)
	return refParityState{bits: b, c: p.c}
}

func (p *refParityState) xorWith(q refParityState) {
	for i := range q.bits {
		for len(p.bits) <= i {
			p.bits = append(p.bits, 0)
		}
		p.bits[i] ^= q.bits[i]
	}
	p.c = p.c != q.c
}

func (p refParityState) key() string {
	// Trim trailing zero words so keys are epoch-stable.
	end := len(p.bits)
	for end > 0 && p.bits[end-1] == 0 {
		end--
	}
	buf := make([]byte, 0, end*8)
	for _, w := range p.bits[:end] {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(w>>uint(s)))
		}
	}
	return string(buf)
}

// refZAngleOf maps a diagonal phase gate to its z-rotation angle (mod global
// phase), mirroring the table in the rewrite cleaner.
func refZAngleOf(g gate.Gate) (float64, bool) {
	switch g.Name {
	case gate.Rz, gate.U1:
		return g.Params[0], true
	case gate.Z:
		return math.Pi, true
	case gate.S:
		return math.Pi / 2, true
	case gate.Sdg:
		return -math.Pi / 2, true
	case gate.T:
		return math.Pi / 4, true
	case gate.Tdg:
		return -math.Pi / 4, true
	}
	return 0, false
}

// refEmitPhase renders a z-rotation in the gate set's native diagonal gates.
// gs is the resolved set (nil for unknown names, which keep the historical
// rz fallback).
func refEmitPhase(theta float64, q int, gatesetName string, gs *gateset.GateSet) []gate.Gate {
	theta = linalg.NormAngle(theta)
	if math.Abs(theta) < 1e-12 {
		return nil
	}
	switch gatesetName {
	case "ibmq20":
		return []gate.Gate{gate.NewU1(theta, q)}
	case "cliffordt":
		if !linalg.IsMultipleOf(theta, math.Pi/4, 1e-9) {
			return []gate.Gate{gate.NewRz(theta, q)}
		}
		return refPhaseLadder(theta, q)
	default:
		// Custom sets emit whatever diagonal vocabulary they carry; the
		// capability pre-check in foldChanged guarantees one exists and
		// that π/4-ladder-only sets never see a non-multiple total.
		if gs == nil || gs.Contains(gate.Rz) {
			return []gate.Gate{gate.NewRz(theta, q)}
		}
		if gs.Contains(gate.U1) {
			return []gate.Gate{gate.NewU1(theta, q)}
		}
		return refPhaseLadder(theta, q)
	}
}

// refPhaseLadder writes a π/4-multiple rotation over {S, S†, T, T†}.
func refPhaseLadder(theta float64, q int) []gate.Gate {
	k := int(math.Round(theta/(math.Pi/4))) % 8
	if k < 0 {
		k += 8
	}
	lad := map[int][]gate.Gate{
		0: {}, 1: {gate.NewT(q)}, 2: {gate.NewS(q)},
		3: {gate.NewS(q), gate.NewT(q)}, 4: {gate.NewS(q), gate.NewS(q)},
		5: {gate.NewSdg(q), gate.NewTdg(q)}, 6: {gate.NewSdg(q)}, 7: {gate.NewTdg(q)},
	}
	return lad[k]
}

func referenceFold(c *circuit.Circuit, gatesetName string, gs *gateset.GateSet) (*circuit.Circuit, int) {
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
			if a, ok := refZAngleOf(g); ok && !linalg.IsMultipleOf(a, math.Pi/4, 1e-9) {
				return c, 0
			}
		}
	}
	n := c.NumQubits
	words := (n + 63) / 64
	nextVar := 0
	state := make([]refParityState, n)
	fresh := func(q int) {
		w := nextVar / 64
		b := make([]uint64, w+1)
		b[w] = 1 << uint(nextVar%64)
		state[q] = refParityState{bits: b}
		nextVar++
	}
	for q := 0; q < n; q++ {
		fresh(q)
	}

	type bucket struct {
		firstIdx   int
		firstConst bool
		firstQubit int
		total      float64
	}
	buckets := map[string]*bucket{}
	drop := make([]bool, c.Len())
	siteOf := make([]string, c.Len()) // phase-gate index -> bucket key ("" if none)

	for i, g := range c.Gates {
		if a, ok := refZAngleOf(g); ok {
			q := g.Qubits[0]
			st := state[q]
			key := st.key()
			contrib := a
			if st.c {
				contrib = -a
			}
			if b, seen := buckets[key]; seen {
				b.total += contrib
				drop[i] = true
			} else {
				buckets[key] = &bucket{firstIdx: i, firstConst: st.c, firstQubit: q, total: contrib}
				siteOf[i] = key
			}
			continue
		}
		switch g.Name {
		case gate.CX:
			cq, tq := g.Qubits[0], g.Qubits[1]
			state[tq].xorWith(state[cq])
		case gate.X:
			state[refCQ(g)].c = !state[refCQ(g)].c
		default:
			// Untrackable gate: its qubits leave the affine regime; give
			// them fresh variables (a new epoch for those wires).
			for _, q := range g.Qubits {
				fresh(q)
			}
		}
	}
	_ = words

	out := circuit.New(n)
	changed := 0
	// identical tracks, incrementally, whether the output still reproduces
	// the input gate-for-gate: a merged run can re-emit exactly the gates it
	// absorbed (adjacent same-parity phases whose ladder equals them), in
	// which case the pass is a no-op despite having "merged" something.
	identical := true
	emit := func(g gate.Gate) {
		if identical && (len(out.Gates) >= len(c.Gates) || !g.Equal(c.Gates[len(out.Gates)])) {
			identical = false
		}
		out.Gates = append(out.Gates, g)
	}
	for i, g := range c.Gates {
		if drop[i] {
			changed++
			continue
		}
		if key := siteOf[i]; key != "" {
			b := buckets[key]
			theta := b.total
			if b.firstConst {
				theta = -theta
			}
			emitted := refEmitPhase(theta, b.firstQubit, gatesetName, gs)
			if !(len(emitted) == 1 && emitted[0].Equal(g)) {
				changed++
			}
			for _, m := range emitted {
				emit(m)
			}
			continue
		}
		emit(g.Clone())
	}
	if identical && len(out.Gates) == len(c.Gates) {
		changed = 0
	}
	return out, changed
}

func refCQ(g gate.Gate) int { return g.Qubits[0] }
