package gate

import "math"

// ZPhase returns the z-rotation angle of a diagonal phase gate (mod global
// phase) and whether g is one.
func ZPhase(g Gate) (float64, bool) {
	switch g.Name {
	case Rz, U1:
		return g.Params[0], true
	case Z:
		return math.Pi, true
	case S:
		return math.Pi / 2, true
	case Sdg:
		return -math.Pi / 2, true
	case T:
		return math.Pi / 4, true
	case Tdg:
		return -math.Pi / 4, true
	}
	return 0, false
}

// phaseLadders[k] is the minimal sequence over {S, S†, T, T†} for the
// z-rotation k·π/4.
var phaseLadders = [8][]Name{
	{}, {T}, {S}, {S, T}, {S, S}, {Sdg, Tdg}, {Sdg}, {Tdg},
}

// PhaseForm is a z-rotation rendered in native diagonal gates on one
// qubit: a single continuous rotation Rot(Theta) when Rot is set (Rz or
// U1), otherwise the π/4 ladder Ladder. The zero value renders nothing
// (the identity). Passes compare a form against the gates it would
// replace before building any of them.
type PhaseForm struct {
	Rot    Name
	Theta  float64
	Ladder []Name
}

// PhaseLadder returns the form of a π/4-multiple z-rotation over
// {S, S†, T, T†}.
func PhaseLadder(theta float64) PhaseForm {
	k := int(math.Round(theta/(math.Pi/4))) % 8
	if k < 0 {
		k += 8
	}
	return PhaseForm{Ladder: phaseLadders[k]}
}

// Len returns the number of gates the form renders to.
func (f PhaseForm) Len() int {
	if f.Rot != "" {
		return 1
	}
	return len(f.Ladder)
}

// EqualAt reports whether the form's i-th gate, placed on qubit q, is
// structurally equal (Gate.Equal) to g.
func (f PhaseForm) EqualAt(i, q int, g Gate) bool {
	if len(g.Qubits) != 1 || g.Qubits[0] != q {
		return false
	}
	if f.Rot != "" {
		return g.Name == f.Rot && len(g.Params) == 1 && g.Params[0] == f.Theta
	}
	return g.Name == f.Ladder[i] && len(g.Params) == 0
}

// Append appends the form's gates, placed on qubit q, to dst.
func (f PhaseForm) Append(dst []Gate, q int) []Gate {
	if f.Rot != "" {
		return append(dst, New(f.Rot, []int{q}, []float64{f.Theta}))
	}
	for _, n := range f.Ladder {
		dst = append(dst, New(n, []int{q}, nil))
	}
	return dst
}
