// Package numeric implements BQSKit-style bottom-up synthesis for
// continuous gate sets: template circuits made of CX gates and
// parameterized single-qubit rotations, instantiated by Rotosolve-style
// exact coordinate ascent on the Hilbert–Schmidt overlap, searched
// structure-by-structure in increasing two-qubit gate count.
package numeric

import (
	"math"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// elem is one element of a template: either a fixed CX or a parameterized
// rotation (rz/ry) on one qubit. U3 sites are expanded to rz·ry·rz so every
// parameter is a single Pauli-rotation angle, which makes each coordinate of
// the overlap an exact sinusoid (see solve.go).
type elem struct {
	fixed  bool
	name   gate.Name // cx for fixed; rz or ry for parameterized
	qubits []int
	// mask is the basis-index bit of the rotation's qubit, or of the CX's
	// control; tmask is the CX's target bit.
	mask, tmask int
}

// Template is a parameterized circuit skeleton on n qubits.
//
// A Template owns the d×d scratch its sweeps work in, so one Template must
// be used by one goroutine at a time.
type Template struct {
	N      int
	Elems  []elem
	NumCX  int
	nparam int
	env    linalg.Matrix // sweep workspace: the environment (see solve.go)
}

// NewTemplate builds the standard bottom-up skeleton: a U3 on every qubit,
// then for each pair in pairs a CX followed by a U3 on each of its qubits.
func NewTemplate(n int, pairs [][2]int) *Template {
	t := &Template{N: n, Elems: make([]elem, 0, 3*n+7*len(pairs)), env: linalg.New(1 << n)}
	for q := 0; q < n; q++ {
		t.addU3(q)
	}
	for _, p := range pairs {
		t.Elems = append(t.Elems, elem{fixed: true, name: gate.CX, qubits: []int{p[0], p[1]},
			mask: t.bit(p[0]), tmask: t.bit(p[1])})
		t.NumCX++
		t.addU3(p[0])
		t.addU3(p[1])
	}
	return t
}

func (t *Template) addU3(q int) {
	// U3(θ,φ,λ) ∝ Rz(φ)·Ry(θ)·Rz(λ): execution order rz(λ), ry(θ), rz(φ).
	qs, m := []int{q}, t.bit(q)
	t.Elems = append(t.Elems,
		elem{name: gate.Rz, qubits: qs, mask: m},
		elem{name: gate.Ry, qubits: qs, mask: m},
		elem{name: gate.Rz, qubits: qs, mask: m},
	)
	t.nparam += 3
}

func (t *Template) bit(q int) int { return 1 << linalg.BitPos(t.N, q) }

// NumParams returns the number of free angles.
func (t *Template) NumParams() int { return t.nparam }

// Unitary evaluates the template at the given parameters.
func (t *Template) Unitary(params []float64) linalg.Matrix {
	d := 1 << t.N
	u := linalg.Identity(d)
	pi := 0
	for i := range t.Elems {
		e := &t.Elems[i]
		if e.fixed {
			cxRows(u.Data, d, e.mask, e.tmask)
			continue
		}
		mixRows(u.Data, d, e.mask, rotation(e.name, params[pi]))
		pi++
	}
	return u
}

// Gate-local kernels on a d×d row-major matrix m. A one-qubit gate on the
// qubit with index bit mask mixes the row (or column) pairs r, r|mask; a CX
// swaps the row (or column) pairs whose control bit is set. Each costs
// O(d²), where a dense product costs O(d³).

// mat2 is a row-major 2×2 complex matrix.
type mat2 [4]complex128

// rotation returns the matrix of the Pauli rotation rz or ry at angle theta,
// as gate.Matrix defines it. rotation(name, −θ) is its adjoint.
func rotation(name gate.Name, theta float64) mat2 {
	s, c := math.Sincos(theta / 2)
	if name == gate.Rz {
		return mat2{complex(c, -s), 0, 0, complex(c, s)}
	}
	return mat2{complex(c, 0), complex(-s, 0), complex(s, 0), complex(c, 0)}
}

// mixRows sets m ← G·m for the one-qubit gate g on the qubit at mask.
//
//guoq:hotpath
func mixRows(m []complex128, d, mask int, g mat2) {
	diag := g[1] == 0 && g[2] == 0
	for base := 0; base < d; base += 2 * mask {
		for r := base; r < base+mask; r++ {
			a := m[r*d : r*d+d]
			b := m[(r+mask)*d : (r+mask)*d+d]
			if diag {
				for c := range a {
					a[c] *= g[0]
					b[c] *= g[3]
				}
				continue
			}
			for c := range a {
				x, y := a[c], b[c]
				a[c] = g[0]*x + g[1]*y
				b[c] = g[2]*x + g[3]*y
			}
		}
	}
}

// mixCols sets m ← m·G for the one-qubit gate g on the qubit at mask.
//
//guoq:hotpath
func mixCols(m []complex128, d, mask int, g mat2) {
	diag := g[1] == 0 && g[2] == 0
	for r := 0; r < d; r++ {
		row := m[r*d : r*d+d]
		for base := 0; base < d; base += 2 * mask {
			a := row[base : base+mask]
			b := row[base+mask : base+2*mask]
			if diag {
				for c := range a {
					a[c] *= g[0]
					b[c] *= g[3]
				}
				continue
			}
			for c := range a {
				x, y := a[c], b[c]
				a[c] = x*g[0] + y*g[2]
				b[c] = x*g[1] + y*g[3]
			}
		}
	}
}

// cxRows sets m ← CX·m for the CX with control bit cmask, target bit tmask.
//
//guoq:hotpath
func cxRows(m []complex128, d, cmask, tmask int) {
	for r := 0; r < d; r++ {
		if r&cmask == 0 || r&tmask != 0 {
			continue
		}
		a := m[r*d : r*d+d]
		b := m[(r|tmask)*d : (r|tmask)*d+d]
		for c := range a {
			a[c], b[c] = b[c], a[c]
		}
	}
}

// cxCols sets m ← m·CX for the CX with control bit cmask, target bit tmask.
//
//guoq:hotpath
func cxCols(m []complex128, d, cmask, tmask int) {
	for r := 0; r < d; r++ {
		row := m[r*d : r*d+d]
		for c := 0; c < d; c++ {
			if c&cmask != 0 && c&tmask == 0 {
				row[c], row[c|tmask] = row[c|tmask], row[c]
			}
		}
	}
}

// Instantiate renders the template at the given parameters as a circuit of
// rz/ry/cx gates, dropping (near-)zero rotations.
func (t *Template) Instantiate(params []float64) *circuit.Circuit {
	c := circuit.New(t.N)
	pi := 0
	for _, e := range t.Elems {
		if e.fixed {
			c.Append(gate.New(e.name, append([]int{}, e.qubits...), nil))
			continue
		}
		th := linalg.NormAngle(params[pi])
		pi++
		if math.Abs(th) > 1e-10 {
			c.Append(gate.New(e.name, append([]int{}, e.qubits...), []float64{th}))
		}
	}
	return c
}

// pairSets enumerates the two-qubit interaction pairs available on n qubits
// (all-to-all connectivity, as in the paper's setting where optimizers may
// change connectivity).
func pairSets(n int) [][2]int {
	var out [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}
