package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/synth"
)

// Rotosolve-style exact coordinate ascent on the Hilbert–Schmidt overlap,
// computed on an environment matrix.
//
// For a template U(θ) = M_{k−1} ··· M_0 and target A, the normalized overlap
// is τ = Tr(A†·U)/N. Around element i, U = S_{>i}·M_i·R_{<i} with prefix
// R_{<i} = M_{i−1}···M_0 and suffix S_{>i} = M_{k−1}···M_{i+1}, so by the
// cyclic trace Tr(A†·U) = Tr(M_i·E_i) with the environment
//
//	E_i = R_{<i}·A†·S_{>i}.
//
// Every parameterized element is a Pauli rotation
// M_i(θ) = cos(θ/2)·I − i·sin(θ/2)·P, so with all other angles fixed
//
//	Tr(A†·U) = a·cos(θ/2) + b·sin(θ/2),  a = Tr(E_i),  b = Tr(−iP·E_i),
//
// and both traces read off the 2×2 partial trace of E_i on the rotation's
// qubit. |a·cos x + b·sin x|² is a sinusoid in 2x, so the maximizing θ has
// the closed form θ* = atan2(C, A−B) with A = |a|², B = |b|²,
// C = 2·Re(a·conj(b)). Each sweep monotonically increases |τ|.
//
// A sweep builds E_0 = A†·M_{k−1}···M_1 by right-applying the elements to a
// copy of A†, then moves right with E_{i+1} = M_i·E_i·M_{i+1}†, where M_i
// carries its new angle. Every step is a gate-local O(d²) kernel on one d×d
// workspace, so a sweep costs O(k·d²) and allocates nothing. After the last
// element the workspace holds E = U·A†, from which the distance to the
// target follows without rebuilding U (see envDistance).

// Distance returns the HS distance of the instantiated template from the
// target (given as the target itself, not its adjoint).
func (t *Template) Distance(target linalg.Matrix, params []float64) float64 {
	return linalg.HSDistance(target, t.Unitary(params))
}

// sweep performs one coordinate-ascent pass over all parameters, returning
// the final |τ|. adj is the target's adjoint. On return t.env holds U·A†
// at the updated parameters.
//
//guoq:hotpath
func (t *Template) sweep(adj linalg.Matrix, params []float64) float64 {
	d := 1 << t.N
	env := t.env.Data
	copy(env, adj.Data)
	pi := t.nparam
	for i := len(t.Elems) - 1; i >= 1; i-- {
		e := &t.Elems[i]
		if e.fixed {
			cxCols(env, d, e.mask, e.tmask)
			continue
		}
		pi--
		mixCols(env, d, e.mask, rotation(e.name, params[pi]))
	}
	var tau float64
	pi = 0
	for i := range t.Elems {
		e := &t.Elems[i]
		if e.fixed {
			cxRows(env, d, e.mask, e.tmask)
		} else {
			a, b := coefficients(e.name, partialTrace(env, d, e.mask))
			A := real(a)*real(a) + imag(a)*imag(a)
			B := real(b)*real(b) + imag(b)*imag(b)
			C := 2 * (real(a)*real(b) + imag(a)*imag(b))
			theta := math.Atan2(C, A-B)
			params[pi] = theta
			pi++
			mixRows(env, d, e.mask, rotation(e.name, theta))
			// |τ| at the optimum of this coordinate.
			s, c := math.Sincos(theta / 2)
			tau = cmplx.Abs(complex(c, 0)*a+complex(s, 0)*b) / float64(d)
		}
		if i+1 == len(t.Elems) {
			break
		}
		// Strip the next element from the environment's right side.
		if n := &t.Elems[i+1]; n.fixed {
			cxCols(env, d, n.mask, n.tmask)
		} else {
			mixCols(env, d, n.mask, rotation(n.name, -params[pi]))
		}
	}
	return tau
}

// partialTrace returns the 2×2 partial trace of the d×d matrix m onto the
// qubit at mask: ρ[x][y] = Σ_r m[r|x·mask][r|y·mask] over rows r without
// that bit.
//
//guoq:hotpath
func partialTrace(m []complex128, d, mask int) mat2 {
	var p mat2
	for r := 0; r < d; r++ {
		if r&mask != 0 {
			continue
		}
		s := r | mask
		p[0] += m[r*d+r]
		p[1] += m[r*d+s]
		p[2] += m[s*d+r]
		p[3] += m[s*d+s]
	}
	return p
}

// coefficients returns a = Tr(E) and b = Tr(−iP·E) for the rotation rz or
// ry from the partial trace p of E on its qubit: −iσz = diag(−i, i) and
// −iσy = [[0, −1], [1, 0]].
func coefficients(name gate.Name, p mat2) (a, b complex128) {
	a = p[0] + p[3]
	if name == gate.Rz {
		return a, -1i * (p[0] - p[3])
	}
	return a, p[1] - p[2]
}

// envDistance returns Δ(A, U) from the environment a sweep leaves behind,
// E = U·A†. It is linalg.HSDistance(A, U) evaluated through the unitary
// invariance ‖A − e^{−iφ}U‖_F = ‖E − e^{iφ}I‖_F, φ = arg Tr(E), with the
// same cancellation-free branch near equivalence.
//
//guoq:hotpath
func (t *Template) envDistance() float64 {
	e := t.env
	n := float64(e.N)
	tr := linalg.Trace(e)
	absTau := cmplx.Abs(tr) / n
	if absTau > 0.5 {
		ph := cmplx.Rect(1, cmplx.Phase(tr))
		var fro float64
		for i, v := range e.Data {
			if i%(e.N+1) == 0 {
				v -= ph
			}
			fro += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Sqrt(fro / (2 * n) * (1 + absTau))
	}
	return math.Sqrt(math.Max(0, 1-absTau*absTau))
}

// Optimize runs coordinate ascent from each initial parameter vector (plus
// zero and random restarts up to `restarts` total starts), stopping early on
// success or stall. It returns the best parameters and their HS distance
// from the target, linalg.HSDistance(target, t.Unitary(best)).
//
// Convergence is linear (≈0.85 contraction per sweep near the optimum), so
// reaching the 1e-9..1e-10 distances needed for tight ε budgets takes a few
// hundred sweeps; the stall detector cuts hopeless starts quickly. Note the
// raw overlap |τ| saturates at 1 within float64 long before the distance
// bottoms out, so progress is tracked with the accurate distance, not τ:
// every fifth sweep reads it from the environment the sweep leaves behind
// (envDistance), and the distance returned is recomputed from the unitary.
func (t *Template) Optimize(target linalg.Matrix, inits [][]float64, restarts, maxSweeps int, tol float64, deadline time.Time) ([]float64, float64) {
	adj := linalg.Adjoint(target)
	var rng *rand.Rand // seeded on first use: most calls need no random start
	var starts [][]float64
	starts = append(starts, inits...)
	for len(starts) < restarts {
		p := make([]float64, t.nparam)
		if len(starts) > len(inits) { // one zero start, the rest random
			if rng == nil {
				rng = rand.New(rand.NewSource(synth.HashMatrix(target) ^ int64(t.nparam)))
			}
			for i := range p {
				p[i] = rng.Float64()*2*math.Pi - math.Pi
			}
		}
		starts = append(starts, p)
	}

	best := make([]float64, t.nparam)
	bestDist := math.Inf(1)
	result := func() ([]float64, float64) {
		if math.IsInf(bestDist, 1) {
			return best, bestDist
		}
		return best, t.Distance(target, best)
	}
	for _, init := range starts {
		params := make([]float64, t.nparam)
		copy(params, init)
		lastDist := math.Inf(1)
		stall := 0
		d := math.Inf(1)
		for s := 0; s < maxSweeps; s++ {
			t.sweep(adj, params)
			if s%5 == 4 || s == maxSweeps-1 {
				d = t.envDistance()
				if d < bestDist {
					bestDist = d
					copy(best, params)
				}
				if d <= tol {
					return result()
				}
				if d > lastDist*0.995 {
					stall++
					if stall >= 3 {
						break
					}
				} else {
					stall = 0
				}
				lastDist = d
				if !deadline.IsZero() && time.Now().After(deadline) {
					return result()
				}
			}
		}
		// Terminal convergence: coordinate ascent plateaus with a linear
		// rate near 1 on ill-conditioned instances; Levenberg–Marquardt
		// finishes quadratically from anywhere in the basin.
		if d < 5e-2 {
			d = t.PolishLM(target, params, 40, tol)
			if d < bestDist {
				bestDist = d
				copy(best, params)
			}
			if bestDist <= tol {
				return result()
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
	}
	return result()
}
