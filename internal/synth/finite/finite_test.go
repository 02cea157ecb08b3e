package finite

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

func TestIdentityIsEmpty(t *testing.T) {
	s := New()
	out, err := s.Synthesize(linalg.Identity(4), 2, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("identity gave %d gates", out.Len())
	}
}

func TestBFS1QFindsMinimal(t *testing.T) {
	s := New()
	// Target: T·H (2 gates). BFS must find a word of length ≤ 2.
	c := circuit.New(1)
	c.Append(gate.NewH(0), gate.NewT(0))
	out, err := s.Synthesize(c.Unitary(), 1, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() > 2 {
		t.Fatalf("BFS found %d gates for an H·T target", out.Len())
	}
	if d := linalg.HSDistance(out.Unitary(), c.Unitary()); d > 1e-8 {
		t.Fatalf("distance %g", d)
	}
}

func TestBFS1QRandomWords(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New()
	vocab := []gate.Name{gate.H, gate.T, gate.Tdg, gate.S, gate.X}
	for trial := 0; trial < 10; trial++ {
		c := circuit.Random(1, 6, vocab, rng)
		out, err := s.Synthesize(c.Unitary(), 1, 1e-8)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if out.Len() > 6 {
			t.Fatalf("trial %d: found %d gates for a 6-gate target", trial, out.Len())
		}
		if d := linalg.HSDistance(out.Unitary(), c.Unitary()); d > 1e-8 {
			t.Fatalf("trial %d: distance %g", trial, d)
		}
	}
}

func TestAnneal2QShortTargets(t *testing.T) {
	s := New()
	s.Seed = 42
	// cx·(t ⊗ id) — a 2-gate Clifford+T circuit.
	c := circuit.New(2)
	c.Append(gate.NewT(1), gate.NewCX(0, 1))
	out, err := s.Synthesize(c.Unitary(), 2, 1e-8)
	if err != nil {
		t.Skipf("annealer missed a short target within budget: %v", err)
	}
	if d := linalg.HSDistance(out.Unitary(), c.Unitary()); d > 1e-8 {
		t.Fatalf("distance %g", d)
	}
	if !gateset.CliffordT.IsNative(out) {
		t.Fatal("non-native output")
	}
}

func TestAnnealRespectsTolerance(t *testing.T) {
	// Whatever the annealer returns must be within eps.
	rng := rand.New(rand.NewSource(2))
	s := New()
	s.Iters = 1500
	vocab := []gate.Name{gate.H, gate.T, gate.S, gate.X, gate.CX}
	for trial := 0; trial < 3; trial++ {
		c := circuit.Random(2, 4, vocab, rng)
		out, err := s.Synthesize(c.Unitary(), 2, 1e-8)
		if err != nil {
			continue // no solution found is acceptable
		}
		if d := linalg.HSDistance(out.Unitary(), c.Unitary()); d > 1e-8 {
			t.Fatalf("trial %d: returned a solution outside tolerance: %g", trial, d)
		}
	}
}

func TestTooManyQubitsRejected(t *testing.T) {
	s := New()
	if _, err := s.Synthesize(linalg.Identity(16), 4, 1e-8); err == nil {
		t.Fatal("4 qubits should be rejected")
	}
}

// cliffordTTarget is the unitary of a seeded random Clifford+T circuit with
// 2n gates on n qubits.
func cliffordTTarget(n int, seed int64) linalg.Matrix {
	vocab := []gate.Name{gate.H, gate.T, gate.Tdg, gate.S, gate.X, gate.CX}
	return circuit.Random(n, 2*n, vocab, rand.New(rand.NewSource(seed))).Unitary()
}

// TestAnnealGolden pins the annealer's output for seeded 2- and 3-qubit
// targets, so changes to how candidates are scored cannot change what the
// search finds. MaxTime is zero: the result must not depend on timing.
func TestAnnealGolden(t *testing.T) {
	cases := []struct {
		n     int
		seed  int64
		gates string
	}{
		{2, 1, "h q[0]; s q[0]; s q[0]; h q[0]; x q[0]; s q[1]; cx q[0],q[1]; t q[0]; s q[1]; x q[0]; t q[0]; cx q[1],q[0]; sdg q[1]; cx q[0],q[1]; t q[0]; cx q[0],q[1];"},
		{2, 2, "x q[0]; h q[0]; tdg q[0]; x q[0];"},
		{2, 8, "h q[1]; s q[0]; cx q[0],q[1]; tdg q[0]; cx q[0],q[1]; s q[1]; s q[1]; h q[1]; tdg q[0]; cx q[1],q[0]; s q[1];"},
		{3, 2, "h q[2]; tdg q[2];"},
		{3, 6, "t q[0]; x q[0]; t q[1]; h q[2]; s q[0];"},
		{3, 8, "cx q[1],q[2]; x q[0]; cx q[2],q[1]; s q[0];"},
	}
	for _, tc := range cases {
		s := New()
		s.MaxTime = 0
		out, err := s.Synthesize(cliffordTTarget(tc.n, tc.seed), tc.n, 1e-8)
		if err != nil {
			t.Fatalf("n=%d seed=%d: %v", tc.n, tc.seed, err)
		}
		lines := strings.Split(strings.TrimSpace(out.WriteQASM()), "\n")
		if got := strings.Join(lines[3:], " "); got != tc.gates {
			t.Errorf("n=%d seed=%d:\n got %s\nwant %s", tc.n, tc.seed, got, tc.gates)
		}
	}
}

// TestAnnealAllocsIndependentOfIters pins the allocation-free annealing
// loop: a failing 3-qubit call allocates the same at 500 and at 2000
// iterations per restart.
func TestAnnealAllocsIndependentOfIters(t *testing.T) {
	target := cliffordTTarget(3, 3)
	allocs := func(iters int) float64 {
		s := New()
		s.MaxTime = 0
		s.Iters = iters
		return testing.AllocsPerRun(1, func() {
			if _, err := s.Synthesize(target, 3, 1e-8); err == nil {
				t.Fatalf("Iters=%d: expected no solution", iters)
			}
		})
	}
	if a, b := allocs(500), allocs(2000); a != b {
		t.Fatalf("allocs grew with Iters: %v at 500, %v at 2000", a, b)
	}
}
