package gate

import (
	"fmt"
	"math"
	"math/cmplx"

	"github.com/guoq-dev/guoq/internal/linalg"
)

// Matrix returns the unitary matrix of the gate application g in its own
// 2^arity-dimensional space (first listed qubit = most significant bit).
func Matrix(g Gate) linalg.Matrix {
	s, ok := specs[g.Name]
	if !ok {
		panic(fmt.Sprintf("gate: Matrix: unknown gate %q", g.Name))
	}
	m := linalg.New(1 << s.Qubits)
	MatrixInto(g, m)
	return m
}

// MatrixInto writes the matrix of g into dst, which must have g's
// dimension and may hold stale entries. It allocates nothing, so hot
// passes can evaluate gate products into reused buffers; Matrix is New
// plus MatrixInto, so both produce the same bits.
func MatrixInto(g Gate, dst linalg.Matrix) {
	d := dst.Data
	switch g.Name {
	case I:
		set2(d, 1, 0, 0, 1)
	case H:
		h := complex(1/math.Sqrt2, 0)
		set2(d, h, h, h, -h)
	case X:
		set2(d, 0, 1, 1, 0)
	case Y:
		set2(d, 0, -1i, 1i, 0)
	case Z:
		set2(d, 1, 0, 0, -1)
	case S:
		set2(d, 1, 0, 0, 1i)
	case Sdg:
		set2(d, 1, 0, 0, -1i)
	case T:
		set2(d, 1, 0, 0, phase(math.Pi/4))
	case Tdg:
		set2(d, 1, 0, 0, phase(-math.Pi/4))
	case SX:
		set2(d, 0.5+0.5i, 0.5-0.5i, 0.5-0.5i, 0.5+0.5i)
	case SXdg:
		set2(d, 0.5-0.5i, 0.5+0.5i, 0.5+0.5i, 0.5-0.5i)
	case Rx:
		c, s := trig(g.Params[0])
		set2(d, c, -1i*s, -1i*s, c)
	case Ry:
		c, s := trig(g.Params[0])
		set2(d, c, -s, s, c)
	case Rz:
		th := g.Params[0]
		set2(d, phase(-th/2), 0, 0, phase(th/2))
	case U1:
		set2(d, 1, 0, 0, phase(g.Params[0]))
	case U2:
		p, l := g.Params[0], g.Params[1]
		inv := complex(1/math.Sqrt2, 0)
		set2(d, inv, -inv*phase(l), inv*phase(p), inv*phase(p+l))
	case U3:
		u3Into(d, g.Params[0], g.Params[1], g.Params[2])
	case CX:
		diag(d, 4, 1, 1, 0, 0)
		d[2*4+3], d[3*4+2] = 1, 1
	case CZ:
		diag(d, 4, 1, 1, 1, -1)
	case Swap:
		diag(d, 4, 1, 0, 0, 1)
		d[1*4+2], d[2*4+1] = 1, 1
	case Rxx:
		c, s := trig(g.Params[0])
		is := -1i * s
		diag(d, 4, c, c, c, c)
		d[0*4+3], d[1*4+2], d[2*4+1], d[3*4+0] = is, is, is, is
	case Rzz:
		th := g.Params[0]
		a, b := phase(-th/2), phase(th/2)
		diag(d, 4, a, b, b, a)
	case CP:
		diag(d, 4, 1, 1, 1, phase(g.Params[0]))
	case CCX:
		diag(d, 8, 1, 1, 1, 1, 1, 1, 0, 0)
		d[6*8+7], d[7*8+6] = 1, 1
	case CCZ:
		diag(d, 8, 1, 1, 1, 1, 1, 1, 1, -1)
	default:
		panic(fmt.Sprintf("gate: Matrix: unknown gate %q", g.Name))
	}
}

// set2 writes the 2×2 matrix [[a, b], [c, e]].
func set2(d []complex128, a, b, c, e complex128) {
	if len(d) != 4 {
		panic(fmt.Sprintf("gate: MatrixInto: 1-qubit gate into %d entries", len(d)))
	}
	d[0], d[1], d[2], d[3] = a, b, c, e
}

// diag zeroes the n×n matrix d and writes the diagonal vs.
func diag(d []complex128, n int, vs ...complex128) {
	if len(d) != n*n {
		panic(fmt.Sprintf("gate: MatrixInto: %d-dimensional gate into %d entries", n, len(d)))
	}
	clear(d)
	for i, v := range vs {
		d[i*n+i] = v
	}
}

func phase(a float64) complex128 { return cmplx.Exp(complex(0, a)) }

func trig(theta float64) (c, s complex128) {
	return complex(math.Cos(theta/2), 0), complex(math.Sin(theta/2), 0)
}

func u3Into(d []complex128, t, p, l float64) {
	c := complex(math.Cos(t/2), 0)
	s := complex(math.Sin(t/2), 0)
	set2(d, c, -phase(l)*s, phase(p)*s, phase(p+l)*c)
}

// U3Matrix exposes the U3 gate matrix for synthesis templates.
func U3Matrix(theta, phi, lambda float64) linalg.Matrix {
	m := linalg.New(2)
	u3Into(m.Data, theta, phi, lambda)
	return m
}

// Inverse returns a gate application implementing g†, expressed in the same
// vocabulary (e.g. Inverse(t) = tdg, Inverse(rz(θ)) = rz(−θ)).
func Inverse(g Gate) Gate {
	switch g.Name {
	case I, H, X, Y, Z, CX, CZ, Swap, CCX, CCZ: // self-inverse
		return g.Clone()
	case S:
		return New(Sdg, g.Qubits, nil)
	case Sdg:
		return New(S, g.Qubits, nil)
	case T:
		return New(Tdg, g.Qubits, nil)
	case Tdg:
		return New(T, g.Qubits, nil)
	case SX:
		return New(SXdg, g.Qubits, nil)
	case SXdg:
		return New(SX, g.Qubits, nil)
	case Rx, Ry, Rz, Rxx, Rzz, CP, U1:
		return New(g.Name, g.Qubits, []float64{-g.Params[0]})
	case U2:
		// U2(φ,λ)† = U3(−π/2, −λ, −φ)
		return New(U3, g.Qubits, []float64{-math.Pi / 2, -g.Params[1], -g.Params[0]})
	case U3:
		return New(U3, g.Qubits, []float64{-g.Params[0], -g.Params[2], -g.Params[1]})
	}
	panic(fmt.Sprintf("gate: Inverse: unknown gate %q", g.Name))
}

// IsTwoQubit reports whether the gate acts on exactly two qubits. Two-qubit
// gate count is the primary NISQ metric in the paper.
func (g Gate) IsTwoQubit() bool { return len(g.Qubits) == 2 }

// IsTGate reports whether the gate is a T or T† gate — the costly gates in
// fault-tolerant execution (Q4 in the paper).
func (g Gate) IsTGate() bool { return g.Name == T || g.Name == Tdg }

// IsIdentityAngle reports whether a parameterized rotation is the identity
// (all angles ≡ 0 mod 4π for half-angle rotations, mod 2π for phase gates)
// within tol. Non-parameterized gates return false.
func (g Gate) IsIdentityAngle(tol float64) bool {
	if len(g.Params) == 0 {
		return g.Name == I
	}
	switch g.Name {
	case Rx, Ry, Rz, Rxx, Rzz:
		// exp(-iθG/2) = I requires θ ≡ 0 (mod 4π); θ = 2π gives −I which is
		// identity up to global phase, acceptable for whole-circuit use but
		// NOT inside a controlled context. We only treat θ ≡ 0 mod 2π as
		// removable: at 2π the gate equals −I, a pure global phase.
		return linalg.IsMultipleOf(g.Params[0], 2*math.Pi, tol)
	case U1, CP:
		return linalg.IsMultipleOf(g.Params[0], 2*math.Pi, tol)
	case U3:
		return linalg.IsMultipleOf(g.Params[0], 2*math.Pi, tol) &&
			linalg.IsMultipleOf(g.Params[1]+g.Params[2], 2*math.Pi, tol)
	}
	return false
}
