// Package synth defines the unitary synthesis interface shared by the
// numeric (continuous gate sets, BQSKit-style) and finite (Clifford+T,
// Synthetiq-style) synthesizers, and the resynthesis wrapper of §4.1 that
// turns a synthesizer into a circuit transformation.
package synth

import (
	"context"
	"errors"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// ErrNoSolution is returned when a synthesizer cannot find a circuit within
// the requested tolerance and budget. Resynthesis transformations treat it
// as "keep the original subcircuit".
var ErrNoSolution = errors.New("synth: no solution within tolerance and budget")

// Synthesizer produces a circuit implementing a target unitary within eps
// Hilbert–Schmidt distance (Def. 3.2), minimizing the caller's cost notion
// (primarily two-qubit / T gates).
type Synthesizer interface {
	// Synthesize returns a circuit on numQubits qubits with
	// Δ(U_circuit, target) ≤ eps, or ErrNoSolution.
	Synthesize(target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error)
	// Name identifies the synthesizer in logs and experiment output.
	Name() string
}

// ContextSynthesizer is a Synthesizer whose search observes context
// cancellation: SynthesizeContext returns (typically with ErrNoSolution or
// the context's error) as soon as it notices ctx is done, instead of
// running to its own MaxTime deadline. Both built-in synthesizers
// implement it; the optimizer's cancellation path uses it so stopping a
// search never drains a full synthesis deadline.
type ContextSynthesizer interface {
	Synthesizer
	SynthesizeContext(ctx context.Context, target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error)
}

// SynthesizeContext invokes s under ctx when it supports cancellation,
// degrading to the blocking Synthesize otherwise. A nil or Background ctx
// is equivalent to calling Synthesize directly.
func SynthesizeContext(ctx context.Context, s Synthesizer, target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error) {
	if cs, ok := s.(ContextSynthesizer); ok && ctx != nil {
		return cs.SynthesizeContext(ctx, target, numQubits, eps)
	}
	return s.Synthesize(target, numQubits, eps)
}

// twoQubitBoundKey keys the two-qubit bound in a synthesis context.
type twoQubitBoundKey struct{}

// WithTwoQubitBound returns ctx carrying a bound of k two-qubit gates on the
// circuit the synthesizer should return. The optimizer's resynthesis sets
// it to the replaced region's own two-qubit count, and only where a
// replacement with more two-qubit gates would be accepted with probability
// below e⁻¹⁰: a search at a fixed temperature of at least 10 whose
// objective makes every such replacement cost more than the region. The
// bound travels in the context so it reaches the synthesizer through any
// wrapper that forwards SynthesizeContext, without widening the
// interfaces. Synthesizers may ignore it.
func WithTwoQubitBound(ctx context.Context, k int) context.Context {
	return context.WithValue(ctx, twoQubitBoundKey{}, k)
}

// TwoQubitBound returns the bound set by WithTwoQubitBound, if any.
func TwoQubitBound(ctx context.Context) (int, bool) {
	k, ok := ctx.Value(twoQubitBoundKey{}).(int)
	return k, ok
}

// HashMatrix derives a deterministic seed from a target's entries, so that
// synthesizing the same unitary twice explores the same random starts.
func HashMatrix(m linalg.Matrix) int64 {
	var h uint64 = 14695981039346656037
	for _, v := range m.Data {
		h = (h ^ uint64(int64(real(v)*1e6))) * 1099511628211
		h = (h ^ uint64(int64(imag(v)*1e6))) * 1099511628211
	}
	return int64(h)
}

// Resynthesize is the thin wrapper of §4.1: it computes the subcircuit's
// unitary and invokes unitary synthesis, yielding an ε-equivalent circuit.
func Resynthesize(s Synthesizer, sub *circuit.Circuit, eps float64) (*circuit.Circuit, error) {
	return s.Synthesize(sub.Unitary(), sub.NumQubits, eps)
}
