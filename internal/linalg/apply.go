package linalg

import "fmt"

// qubit/bit convention: qubit 0 is the most significant bit of a basis-state
// index. For an n-qubit system, qubit q occupies bit position n-1-q. This
// matches the paper's Example 3.1 where U_C = U_CX · (I ⊗ U_T) for the
// circuit "T q1; CX q0 q1".

// BitPos returns the bit position of qubit q in an n-qubit index.
func BitPos(n, q int) int { return n - 1 - q }

// maxStackGate bounds the gate arity served by stack scratch in the apply
// kernels: masks and the local amplitude vector for gates up to this many
// qubits live in fixed-size arrays instead of per-call heap slices. Every
// gate the optimizer synthesizes is ≤ 3 qubits, so the hot paths never
// allocate; wider gates (tests, exotic callers) fall back to make.
const maxStackGate = 5

// ApplyGateLeft left-multiplies the expanded operator of an m-qubit gate g
// (2^m × 2^m) acting on qubits qs of an n-qubit system onto the 2^n × 2^n
// matrix M, in place: M ← Expand(g, qs)·M.
//
// This avoids materializing the 2^n × 2^n expanded operator; each column of
// M is transformed independently, so the cost is O(4^n · 2^m) instead of
// O(8^n). Single- and two-qubit gates take row-wise fast paths that
// accumulate every entry in the generic loop's order, so all three paths
// produce bit-identical results.
func ApplyGateLeft(g Matrix, qs []int, n int, M Matrix) {
	dim := 1 << n
	if M.N != dim {
		panic(fmt.Sprintf("linalg: ApplyGateLeft: matrix dim %d, want %d", M.N, dim))
	}
	m := len(qs)
	if g.N != 1<<m {
		panic(fmt.Sprintf("linalg: ApplyGateLeft: gate dim %d for %d qubits", g.N, m))
	}
	for _, q := range qs {
		if q < 0 || q >= n {
			panic(fmt.Sprintf("linalg: ApplyGateLeft: qubit %d out of range [0,%d)", q, n))
		}
	}
	switch m {
	case 1:
		applyLeft1Q(g.Data, 1<<BitPos(n, qs[0]), M.Data, dim)
	case 2:
		applyLeft2Q(g.Data, 1<<BitPos(n, qs[0]), 1<<BitPos(n, qs[1]), M.Data, dim)
	default:
		applyLeftGeneric(g, qs, n, M)
	}
}

// applyLeft1Q is ApplyGateLeft's single-qubit fast path: rows pair up at
// stride mask and each pair is mixed by the 2×2 matrix. Each entry starts
// from a zero accumulator and adds the products in column order, exactly
// as applyLeftGeneric does.
//
//guoq:hotpath
func applyLeft1Q(gd []complex128, mask int, md []complex128, dim int) {
	_ = gd[3]
	g00, g01, g10, g11 := gd[0], gd[1], gd[2], gd[3]
	for base := 0; base < dim; base += 2 * mask {
		for r := base; r < base+mask; r++ {
			top := md[r*dim : r*dim+dim]
			bot := md[(r+mask)*dim : (r+mask)*dim+dim]
			for c, a := range top {
				b := bot[c]
				var x, y complex128
				x += g00 * a
				x += g01 * b
				y += g10 * a
				y += g11 * b
				top[c], bot[c] = x, y
			}
		}
	}
}

// applyLeft2Q is ApplyGateLeft's two-qubit fast path: rows group into
// quadruples indexed by the two qubit bits (ma = gate-local MSB), with the
// generic loop's accumulation order.
//
//guoq:hotpath
func applyLeft2Q(gd []complex128, ma, mb int, md []complex128, dim int) {
	_ = gd[15]
	g00, g01, g02, g03 := gd[0], gd[1], gd[2], gd[3]
	g10, g11, g12, g13 := gd[4], gd[5], gd[6], gd[7]
	g20, g21, g22, g23 := gd[8], gd[9], gd[10], gd[11]
	g30, g31, g32, g33 := gd[12], gd[13], gd[14], gd[15]
	for base := 0; base < dim; base++ {
		if base&(ma|mb) != 0 {
			continue
		}
		r0 := md[base*dim : base*dim+dim]
		r1 := md[(base|mb)*dim : (base|mb)*dim+dim]
		r2 := md[(base|ma)*dim : (base|ma)*dim+dim]
		r3 := md[(base|ma|mb)*dim : (base|ma|mb)*dim+dim]
		for c, i0 := range r0 {
			i1, i2, i3 := r1[c], r2[c], r3[c]
			var o0, o1, o2, o3 complex128
			o0 += g00 * i0
			o0 += g01 * i1
			o0 += g02 * i2
			o0 += g03 * i3
			o1 += g10 * i0
			o1 += g11 * i1
			o1 += g12 * i2
			o1 += g13 * i3
			o2 += g20 * i0
			o2 += g21 * i1
			o2 += g22 * i2
			o2 += g23 * i3
			o3 += g30 * i0
			o3 += g31 * i1
			o3 += g32 * i2
			o3 += g33 * i3
			r0[c], r1[c], r2[c], r3[c] = o0, o1, o2, o3
		}
	}
}

// applyLeftGeneric is ApplyGateLeft for any gate arity: the m ≥ 3 path and
// the reference the fast paths are tested against.
func applyLeftGeneric(g Matrix, qs []int, n int, M Matrix) {
	dim := 1 << n
	m := len(qs)
	// masks[j] = bit mask of gate-local bit j in the global index. Stack
	// scratch for the (universal) small-gate case; see maxStackGate.
	gdim := 1 << m
	var masksArr [maxStackGate]int
	var inArr [1 << maxStackGate]complex128
	masks, in := masksArr[:], inArr[:gdim:gdim]
	if m > maxStackGate {
		masks = make([]int, m)
		in = make([]complex128, gdim)
	}
	var tmask int
	for j, q := range qs {
		masks[j] = 1 << BitPos(n, q)
		tmask |= masks[j]
	}
	gd := g.Data
	// Enumerate every base index whose target bits are all zero; the 2^m
	// amplitudes at base|pattern form one local vector per column.
	for col := 0; col < dim; col++ {
		for base := 0; base < dim; base++ {
			if base&tmask != 0 {
				continue
			}
			for l := 0; l < gdim; l++ {
				idx := base
				for j := 0; j < m; j++ {
					if l&(1<<(m-1-j)) != 0 {
						idx |= masks[j]
					}
				}
				in[l] = M.Data[idx*dim+col]
			}
			for l := 0; l < gdim; l++ {
				var acc complex128
				grow := gd[l*gdim : (l+1)*gdim]
				for k := 0; k < gdim; k++ {
					acc += grow[k] * in[k]
				}
				idx := base
				for j := 0; j < m; j++ {
					if l&(1<<(m-1-j)) != 0 {
						idx |= masks[j]
					}
				}
				M.Data[idx*dim+col] = acc
			}
		}
	}
}

// ApplyGateVec left-multiplies the expanded operator of an m-qubit gate onto
// a state vector of length 2^n, in place. Single- and two-qubit gates take
// specialized kernels — they dominate state-vector simulation time.
func ApplyGateVec(g Matrix, qs []int, n int, v []complex128) {
	dim := 1 << n
	if len(v) != dim {
		panic(fmt.Sprintf("linalg: ApplyGateVec: vector len %d, want %d", len(v), dim))
	}
	m := len(qs)
	if g.N != 1<<m {
		panic("linalg: ApplyGateVec: gate dimension mismatch")
	}
	if m == 1 {
		apply1QVec(g, qs[0], n, v)
		return
	}
	if m == 2 {
		apply2QVec(g, qs[0], qs[1], n, v)
		return
	}
	// Stack scratch for small gates — the m ≥ 3 path still runs inside
	// synthesis workers' fidelity checks, so it must not allocate per gate.
	gdim := 1 << m
	var masksArr [maxStackGate]int
	var inArr [1 << maxStackGate]complex128
	masks, in := masksArr[:], inArr[:gdim:gdim]
	if m > maxStackGate {
		masks = make([]int, m)
		in = make([]complex128, gdim)
	}
	var tmask int
	for j, q := range qs {
		masks[j] = 1 << BitPos(n, q)
		tmask |= masks[j]
	}
	gd := g.Data
	for base := 0; base < dim; base++ {
		if base&tmask != 0 {
			continue
		}
		for l := 0; l < gdim; l++ {
			idx := base
			for j := 0; j < m; j++ {
				if l&(1<<(m-1-j)) != 0 {
					idx |= masks[j]
				}
			}
			in[l] = v[idx]
		}
		for l := 0; l < gdim; l++ {
			var acc complex128
			grow := gd[l*gdim : (l+1)*gdim]
			for k := 0; k < gdim; k++ {
				acc += grow[k] * in[k]
			}
			idx := base
			for j := 0; j < m; j++ {
				if l&(1<<(m-1-j)) != 0 {
					idx |= masks[j]
				}
			}
			v[idx] = acc
		}
	}
}

// apply1QVec is the single-qubit fast path: amplitudes pair up at stride
// 2^bit and each pair is mixed by the 2×2 matrix.
func apply1QVec(g Matrix, q, n int, v []complex128) {
	stride := 1 << uint(BitPos(n, q))
	g00, g01 := g.Data[0], g.Data[1]
	g10, g11 := g.Data[2], g.Data[3]
	dim := len(v)
	for base := 0; base < dim; base += stride << 1 {
		for i := base; i < base+stride; i++ {
			a, b := v[i], v[i+stride]
			v[i] = g00*a + g01*b
			v[i+stride] = g10*a + g11*b
		}
	}
}

// apply2QVec is the two-qubit fast path: amplitudes group into quadruples
// indexed by the two qubit bits (qa = gate-local MSB).
func apply2QVec(g Matrix, qa, qb, n int, v []complex128) {
	ma := 1 << uint(BitPos(n, qa))
	mb := 1 << uint(BitPos(n, qb))
	dim := len(v)
	// Hoist the 16 coefficients into registers; one bounds check up front
	// replaces 16 per quadruple.
	gd := g.Data
	_ = gd[15]
	g00, g01, g02, g03 := gd[0], gd[1], gd[2], gd[3]
	g10, g11, g12, g13 := gd[4], gd[5], gd[6], gd[7]
	g20, g21, g22, g23 := gd[8], gd[9], gd[10], gd[11]
	g30, g31, g32, g33 := gd[12], gd[13], gd[14], gd[15]
	var in [4]complex128
	for base := 0; base < dim; base++ {
		if base&ma != 0 || base&mb != 0 {
			continue
		}
		i00 := base
		i01 := base | mb
		i10 := base | ma
		i11 := base | ma | mb
		in[0], in[1], in[2], in[3] = v[i00], v[i01], v[i10], v[i11]
		v[i00] = g00*in[0] + g01*in[1] + g02*in[2] + g03*in[3]
		v[i01] = g10*in[0] + g11*in[1] + g12*in[2] + g13*in[3]
		v[i10] = g20*in[0] + g21*in[1] + g22*in[2] + g23*in[3]
		v[i11] = g30*in[0] + g31*in[1] + g32*in[2] + g33*in[3]
	}
}

// Expand returns the full 2^n × 2^n operator of an m-qubit gate g applied to
// qubits qs of an n-qubit system. Used in tests and small-circuit paths; hot
// paths use ApplyGateLeft instead.
func Expand(g Matrix, qs []int, n int) Matrix {
	out := Identity(1 << n)
	ApplyGateLeft(g, qs, n, out)
	return out
}
