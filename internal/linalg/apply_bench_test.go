package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Benchmarks for the state-vector apply kernels. Before the stack-scratch
// conversion, ApplyGateVec's generic (m ≥ 3) path and ApplyGateLeft each
// allocated two slices per call (masks + local amplitude scratch), and
// apply2QVec re-read all 16 gate coefficients from g.Data on every
// quadruple. After it, every kernel is 0 allocs/op up to maxStackGate
// qubits (12-qubit state, container reference machine: 1q ≈ 16 µs/op,
// 2q ≈ 27 µs/op, 3q ≈ 106 µs/op).
//
// The synthesis workers' fidelity checks call these in a tight loop, so
// 0 allocs/op for m ≤ maxStackGate is load-bearing — pinned by
// TestApplyKernelsZeroAlloc below.

func randomUnitaryish(m int, rng *rand.Rand) Matrix {
	// Not exactly unitary — benchmarks and alloc tests only need the right
	// shape and nonzero entries.
	g := New(1 << m)
	for i := range g.Data {
		g.Data[i] = cmplx.Rect(1/math.Sqrt(float64(g.N)), rng.Float64()*2*math.Pi)
	}
	return g
}

func randomState(n int, rng *rand.Rand) []complex128 {
	v := make([]complex128, 1<<n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func benchApplyGateVec(b *testing.B, m int) {
	const n = 12
	rng := rand.New(rand.NewSource(7))
	g := randomUnitaryish(m, rng)
	v := randomState(n, rng)
	qs := make([]int, m)
	for i := range qs {
		qs[i] = i * 2 // spread across the register
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyGateVec(g, qs, n, v)
	}
}

func BenchmarkApplyGateVec1Q(b *testing.B) { benchApplyGateVec(b, 1) }
func BenchmarkApplyGateVec2Q(b *testing.B) { benchApplyGateVec(b, 2) }
func BenchmarkApplyGateVec3Q(b *testing.B) { benchApplyGateVec(b, 3) }

func BenchmarkApplyGateLeft2Q(b *testing.B) {
	const n = 6
	rng := rand.New(rand.NewSource(7))
	g := randomUnitaryish(2, rng)
	M := Identity(1 << n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyGateLeft(g, []int{1, 4}, n, M)
	}
}

// TestApplyKernelsZeroAlloc pins the zero-allocation guarantee for every
// gate arity the optimizer produces (≤ 3 qubits) plus the stack-scratch
// boundary at maxStackGate.
func TestApplyKernelsZeroAlloc(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewSource(3))
	v := randomState(n, rng)
	for m := 1; m <= maxStackGate; m++ {
		g := randomUnitaryish(m, rng)
		qs := make([]int, m)
		for i := range qs {
			qs[i] = i
		}
		allocs := testing.AllocsPerRun(20, func() {
			ApplyGateVec(g, qs, n, v)
		})
		if allocs != 0 {
			t.Errorf("ApplyGateVec m=%d: %v allocs/op, want 0", m, allocs)
		}
	}
	g := randomUnitaryish(2, rng)
	M := Identity(1 << 5)
	allocs := testing.AllocsPerRun(10, func() {
		ApplyGateLeft(g, []int{0, 3}, 5, M)
	})
	if allocs != 0 {
		t.Errorf("ApplyGateLeft m=2: %v allocs/op, want 0", allocs)
	}
}

// TestApplyGateLeftFastPathsMatchGeneric pins ApplyGateLeft's 1- and
// 2-qubit fast paths to the generic loop bit for bit, signed zeros
// included: Clifford+T and CX gates (whose zero entries produce −0
// products) and random gates, on every qubit placement of 1–4-qubit
// matrices that are dense, identity, or sparse with signed entries.
func TestApplyGateLeftFastPathsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := complex(1/math.Sqrt2, 0)
	w := cmplx.Exp(complex(0, math.Pi/4))
	gates1 := []Matrix{
		FromRows([][]complex128{{r, r}, {r, -r}}),            // H
		FromRows([][]complex128{{0, 1}, {1, 0}}),             // X
		FromRows([][]complex128{{1, 0}, {0, 1i}}),            // S
		FromRows([][]complex128{{1, 0}, {0, -1i}}),           // S†
		FromRows([][]complex128{{1, 0}, {0, w}}),             // T
		FromRows([][]complex128{{1, 0}, {0, cmplx.Conj(w)}}), // T†
		randomUnitaryish(1, rng),
		randomUnitaryish(1, rng),
	}
	gates2 := []Matrix{
		FromRows([][]complex128{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}}), // CX
		randomUnitaryish(2, rng),
		randomUnitaryish(2, rng),
	}
	for n := 1; n <= 4; n++ {
		dim := 1 << n
		sparse := New(dim)
		for i := range sparse.Data {
			switch rng.Intn(4) {
			case 0:
				sparse.Data[i] = complex(-rng.Float64(), 0)
			case 1:
				sparse.Data[i] = complex(0, -rng.Float64())
			case 2:
				sparse.Data[i] = complex(math.Copysign(0, -1), rng.NormFloat64())
			}
		}
		inputs := []Matrix{Identity(dim), sparse, randomUnitaryish(n, rng)}
		var placements [][]int
		for a := 0; a < n; a++ {
			placements = append(placements, []int{a})
			for b := 0; b < n; b++ {
				if a != b {
					placements = append(placements, []int{a, b})
				}
			}
		}
		for _, qs := range placements {
			gs := gates1
			if len(qs) == 2 {
				gs = gates2
			}
			for gi, g := range gs {
				for ii, in := range inputs {
					fast, ref := in.Clone(), in.Clone()
					ApplyGateLeft(g, qs, n, fast)
					applyLeftGeneric(g, qs, n, ref)
					for k := range ref.Data {
						f, e := fast.Data[k], ref.Data[k]
						if math.Float64bits(real(f)) != math.Float64bits(real(e)) ||
							math.Float64bits(imag(f)) != math.Float64bits(imag(e)) {
							t.Fatalf("n=%d qs=%v gate %d input %d entry %d: fast %v, generic %v",
								n, qs, gi, ii, k, f, e)
						}
					}
				}
			}
		}
	}
}
