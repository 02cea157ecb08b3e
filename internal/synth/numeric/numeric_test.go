package numeric

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/synth"
)

func TestTemplateUnitaryMatchesInstantiate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tpl := NewTemplate(2, [][2]int{{0, 1}, {0, 1}})
	params := make([]float64, tpl.NumParams())
	for i := range params {
		params[i] = rng.Float64()*2*math.Pi - math.Pi
	}
	u := tpl.Unitary(params)
	c := tpl.Instantiate(params)
	if !linalg.EqualUpToPhase(c.Unitary(), u, 1e-9) {
		t.Fatal("Instantiate disagrees with Unitary")
	}
}

func TestSweepMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	target := circuit.Random(2, 10, circuit.DefaultTestVocab, rng).Unitary()
	adj := linalg.Adjoint(target)
	tpl := NewTemplate(2, [][2]int{{0, 1}, {0, 1}, {0, 1}})
	params := make([]float64, tpl.NumParams())
	for i := range params {
		params[i] = rng.Float64()*2*math.Pi - math.Pi
	}
	prev := tpl.overlap(adj, params)
	for s := 0; s < 10; s++ {
		tau := tpl.sweep(adj, params)
		if tau < prev-1e-9 {
			t.Fatalf("sweep %d decreased overlap: %g -> %g", s, prev, tau)
		}
		prev = tau
	}
}

// overlap returns |Tr(A†·U(params))| / N.
func (t *Template) overlap(adj linalg.Matrix, params []float64) float64 {
	u := t.Unitary(params)
	return cmplx.Abs(linalg.Trace(linalg.Mul(adj, u))) / float64(u.N)
}

// referenceSweep is the dense-product form of sweep, kept as its test
// oracle: suffix products S[i] = M_{k−1}···M_i and a running prefix R, with
// a = Tr(A†·S[i+1]·R) and b = Tr(A†·S[i+1]·(−iP)·R) for each angle. It
// costs O(k·d³) and allocates per element.
func (t *Template) referenceSweep(adj linalg.Matrix, params []float64) float64 {
	dim := 1 << t.N
	k := len(t.Elems)
	suffix := make([]linalg.Matrix, k+1)
	suffix[k] = linalg.Identity(dim)
	pidx := make([]int, k)
	pi := t.nparam
	for i := k - 1; i >= 0; i-- {
		e := t.Elems[i]
		var gm linalg.Matrix
		if e.fixed {
			pidx[i] = -1
			gm = gate.Matrix(gate.New(e.name, e.qubits, nil))
		} else {
			pi--
			pidx[i] = pi
			gm = gate.Matrix(gate.New(e.name, e.qubits, []float64{params[pi]}))
		}
		// S[i] = S[i+1]·M_i, as (M_iᵀ·S[i+1]ᵀ)ᵀ.
		m := transpose(suffix[i+1])
		linalg.ApplyGateLeft(transpose(gm), e.qubits, t.N, m)
		suffix[i] = transpose(m)
	}
	prefix := linalg.Identity(dim)
	var tau float64
	for i := 0; i < k; i++ {
		e := t.Elems[i]
		if e.fixed {
			gm := gate.Matrix(gate.New(e.name, e.qubits, nil))
			linalg.ApplyGateLeft(gm, e.qubits, t.N, prefix)
			continue
		}
		L := linalg.Mul(adj, suffix[i+1])
		a := linalg.Trace(linalg.Mul(L, prefix))
		pr := prefix.Clone()
		var pauli linalg.Matrix
		if e.name == gate.Rz {
			pauli = linalg.FromRows([][]complex128{{-1i, 0}, {0, 1i}}) // −i·σz
		} else {
			pauli = linalg.FromRows([][]complex128{{0, -1}, {1, 0}}) // −i·σy
		}
		linalg.ApplyGateLeft(pauli, e.qubits, t.N, pr)
		b := linalg.Trace(linalg.Mul(L, pr))
		A := real(a)*real(a) + imag(a)*imag(a)
		B := real(b)*real(b) + imag(b)*imag(b)
		C := 2 * (real(a)*real(b) + imag(a)*imag(b))
		theta := math.Atan2(C, A-B)
		params[pidx[i]] = theta
		gm := gate.Matrix(gate.New(e.name, e.qubits, []float64{theta}))
		linalg.ApplyGateLeft(gm, e.qubits, t.N, prefix)
		x := theta / 2
		v := complex(math.Cos(x), 0)*a + complex(math.Sin(x), 0)*b
		tau = cmplx.Abs(v) / float64(dim)
	}
	return tau
}

// randomPairs returns k random CX pairs on n qubits.
func randomPairs(n, k int, rng *rand.Rand) [][2]int {
	pairs := make([][2]int, k)
	for i := range pairs {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		pairs[i] = [2]int{a, b}
	}
	return pairs
}

func randomParams(n int, rng *rand.Rand) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.Float64()*2*math.Pi - math.Pi
	}
	return p
}

// TestSweepMatchesReference pins the environment sweep to the dense-product
// oracle: the same angles, and an environment distance equal to the
// HS distance of the rebuilt unitary.
func TestSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 3} {
		for cx := 0; cx <= 6; cx++ {
			for trial := 0; trial < 3; trial++ {
				target := circuit.Random(n, 20, circuit.DefaultTestVocab, rng).Unitary()
				adj := linalg.Adjoint(target)
				tpl := NewTemplate(n, randomPairs(n, cx, rng))
				// Warm start: a few sweeps from a random point.
				warm := randomParams(tpl.NumParams(), rng)
				for s := 0; s < 3; s++ {
					tpl.sweep(adj, warm)
				}
				got := append([]float64(nil), warm...)
				want := append([]float64(nil), warm...)
				tauGot := tpl.sweep(adj, got)
				tauWant := tpl.referenceSweep(adj, want)
				for i := range got {
					if d := math.Abs(linalg.NormAngle(got[i] - want[i])); d > 1e-12 {
						t.Fatalf("n=%d cx=%d trial %d: angle %d = %.17g, reference %.17g", n, cx, trial, i, got[i], want[i])
					}
				}
				if math.Abs(tauGot-tauWant) > 1e-12 {
					t.Fatalf("n=%d cx=%d trial %d: |τ| %.17g, reference %.17g", n, cx, trial, tauGot, tauWant)
				}
				if d, hs := tpl.envDistance(), linalg.HSDistance(target, tpl.Unitary(got)); math.Abs(d-hs) > 1e-12 {
					t.Fatalf("n=%d cx=%d trial %d: environment distance %.17g, HSDistance %.17g", n, cx, trial, d, hs)
				}
			}
		}
	}
}

// TestEnvDistanceNearSolution checks the environment distance on the
// cancellation-free branch, at distances far below 1e-8.
func TestEnvDistanceNearSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tpl := NewTemplate(3, randomPairs(3, 4, rng))
	params := randomParams(tpl.NumParams(), rng)
	exact := tpl.Unitary(params)
	// Nudge one angle so the target sits a tiny distance away.
	nudged := append([]float64(nil), params...)
	nudged[5] += 1e-9
	target := tpl.Unitary(nudged)
	tpl.sweep(linalg.Adjoint(target), params)
	d, hs := tpl.envDistance(), linalg.HSDistance(target, tpl.Unitary(params))
	if hs > 1e-8 || math.Abs(d-hs) > 1e-12 {
		t.Fatalf("environment distance %g, HSDistance %g (start %g)", d, hs, linalg.HSDistance(target, exact))
	}
}

// TestSweepAllocationFree pins the sweep's workspace discipline.
func TestSweepAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	target := circuit.Random(3, 20, circuit.DefaultTestVocab, rng).Unitary()
	adj := linalg.Adjoint(target)
	tpl := NewTemplate(3, randomPairs(3, 6, rng))
	params := randomParams(tpl.NumParams(), rng)
	if n := testing.AllocsPerRun(50, func() {
		tpl.sweep(adj, params)
		tpl.envDistance()
	}); n != 0 {
		t.Fatalf("sweep allocates %v times per run, want 0", n)
	}
}

// TestSelectBeamIgnoresRoundOff: perturbing distances at the 1e-13 level
// must not change which structures survive, or their order.
func TestSelectBeamIgnoresRoundOff(t *testing.T) {
	mk := func(dists []float64) []cand {
		out := make([]cand, len(dists))
		for i, d := range dists {
			out[i] = cand{pairs: [][2]int{{i, i}}, dist: d}
		}
		return out
	}
	dists := []float64{0.7, 0.521005, 0.521005, 0.9, 0.521005, 0.3000000001, 0.521005}
	want := selectBeam(mk(dists), 3)
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		p := append([]float64(nil), dists...)
		for i := range p {
			p[i] += (rng.Float64()*2 - 1) * 1e-13
		}
		got := selectBeam(mk(p), 3)
		for i := range want {
			if got[i].pairs[0] != want[i].pairs[0] {
				t.Fatalf("trial %d: beam slot %d holds structure %v, want %v", trial, i, got[i].pairs[0], want[i].pairs[0])
			}
		}
	}
	// Among ties, generation order wins.
	if want[0].pairs[0][0] != 5 || want[1].pairs[0][0] != 1 || want[2].pairs[0][0] != 2 {
		t.Fatalf("beam %v, want structures 5, 1, 2", want)
	}
}

func benchmarkSweep(b *testing.B, n int, pairs [][2]int) {
	rng := rand.New(rand.NewSource(7))
	adj := linalg.Adjoint(circuit.Random(n, 30, circuit.DefaultTestVocab, rng).Unitary())
	tpl := NewTemplate(n, pairs)
	params := randomParams(tpl.NumParams(), rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpl.sweep(adj, params)
	}
}

func BenchmarkSweep2Q3CX(b *testing.B) {
	benchmarkSweep(b, 2, [][2]int{{0, 1}, {0, 1}, {0, 1}})
}

func BenchmarkSweep3Q6CX(b *testing.B) {
	benchmarkSweep(b, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 1}, {1, 2}, {0, 2}})
}

func TestSynthesize1Q(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(gateset.IBMQ20)
	for trial := 0; trial < 20; trial++ {
		c := circuit.Random(1, 6, []gate.Name{gate.H, gate.T, gate.S, gate.X, gate.Rz, gate.Rx}, rng)
		target := c.Unitary()
		out, err := s.Synthesize(target, 1, 1e-8)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if out.Len() > 1 {
			t.Fatalf("1q synthesis emitted %d gates, want ≤ 1", out.Len())
		}
		if d := linalg.HSDistance(out.Unitary(), target); d > 1e-8 {
			t.Fatalf("trial %d: distance %g", trial, d)
		}
	}
}

func TestSynthesize2QExactCX(t *testing.T) {
	// A plain CX must synthesize with exactly one CX.
	s := New(gateset.IBMQ20)
	target := gate.Matrix(gate.NewCX(0, 1))
	out, err := s.Synthesize(target, 2, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.TwoQubitCount(); got != 1 {
		t.Fatalf("CX synthesized with %d two-qubit gates:\n%v", got, out)
	}
	if d := linalg.HSDistance(out.Unitary(), target); d > 1e-8 {
		t.Fatalf("distance %g", d)
	}
}

func TestSynthesize2QRandom(t *testing.T) {
	// Random 2-qubit unitaries need at most 3 CX.
	rng := rand.New(rand.NewSource(4))
	s := New(gateset.IBMEagle)
	for trial := 0; trial < 5; trial++ {
		c := circuit.Random(2, 12, circuit.DefaultTestVocab, rng)
		target := c.Unitary()
		out, err := s.Synthesize(target, 2, 1e-8)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := out.TwoQubitCount(); got > 3 {
			t.Fatalf("trial %d: %d two-qubit gates, want ≤ 3", trial, got)
		}
		if d := linalg.HSDistance(out.Unitary(), target); d > 1e-7 {
			t.Fatalf("trial %d: distance %g", trial, d)
		}
		if !gateset.IBMEagle.IsNative(out) {
			t.Fatalf("trial %d: non-native output", trial)
		}
	}
}

func TestSynthesize2QIdentityIsEmpty(t *testing.T) {
	s := New(gateset.IBMQ20)
	out, err := s.Synthesize(linalg.Identity(4), 2, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("identity synthesized with %d gates", out.Len())
	}
}

func TestSynthesize3QGHZPrep(t *testing.T) {
	// The GHZ preparation circuit (h; cx; cx) has an 8×8 unitary needing 2
	// CX gates; the synthesizer should find ≤ a handful.
	c := circuit.New(3)
	c.Append(gate.NewH(0), gate.NewCX(0, 1), gate.NewCX(1, 2))
	target := c.Unitary()
	s := New(gateset.IBMQ20)
	// The default 500ms wall-clock budget is tuned for optimizer calls; under
	// a loaded CI runner (full-suite -race) this heaviest 8×8 case can starve
	// before the seeded search reaches its solution. The search itself is
	// deterministic — it just needs the CPU time.
	s.MaxTime = 10 * time.Second
	out, err := s.Synthesize(target, 3, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.HSDistance(out.Unitary(), target); d > 1e-7 {
		t.Fatalf("distance %g", d)
	}
	if got := out.TwoQubitCount(); got > 4 {
		t.Fatalf("GHZ prep used %d two-qubit gates", got)
	}
}

func TestSynthesizeApproximationHelps(t *testing.T) {
	// A CP with a tiny angle is within loose eps of a CX-free circuit; a
	// large eps must therefore yield fewer two-qubit gates than eps=1e-8.
	c := circuit.New(2)
	c.Append(gate.NewCP(0.02, 0, 1))
	target := c.Unitary()
	s := New(gateset.IBMQ20)
	tight, err := s.Synthesize(target, 2, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := s.Synthesize(target, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if loose.TwoQubitCount() >= tight.TwoQubitCount() && tight.TwoQubitCount() > 0 {
		t.Fatalf("loose eps gave %d 2q gates, tight gave %d — approximation should help",
			loose.TwoQubitCount(), tight.TwoQubitCount())
	}
	if d := linalg.HSDistance(loose.Unitary(), target); d > 0.05 {
		t.Fatalf("loose result exceeds its eps: %g", d)
	}
}

func TestSynthesizeRejectsFiniteSet(t *testing.T) {
	s := New(gateset.CliffordT)
	if _, err := s.Synthesize(linalg.Identity(2), 1, 1e-8); err == nil {
		t.Fatal("finite gate set should be rejected")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := circuit.Random(2, 8, circuit.DefaultTestVocab, rng)
	target := c.Unitary()
	s := New(gateset.IBMQ20)
	a, err := s.Synthesize(target, 2, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Synthesize(target, 2, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !circuit.Equal(a, b) {
		t.Fatal("synthesis is not deterministic for identical targets")
	}
}

// TestSynthesizeTwoQubitBound: a synth.TwoQubitBound below the CX count
// the unbounded search finds for the ibm-eagle Toffoli leaves no solution,
// and a bound at that count finds the same circuit as no bound.
func TestSynthesizeTwoQubitBound(t *testing.T) {
	c := circuit.New(3)
	c.Append(gate.NewCCX(0, 1, 2))
	target := gateset.MustTranslate(c, gateset.IBMEagle).Unitary()
	s := New(gateset.IBMEagle)
	s.MaxTime = 0
	free, err := s.Synthesize(target, 3, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	k := free.TwoQubitCount()
	ctx := context.Background()
	if _, err := s.SynthesizeContext(synth.WithTwoQubitBound(ctx, k-1), target, 3, 1e-8); !errors.Is(err, synth.ErrNoSolution) {
		t.Fatalf("bound %d below the %d CX found: err %v, want ErrNoSolution", k-1, k, err)
	}
	at, err := s.SynthesizeContext(synth.WithTwoQubitBound(ctx, k), target, 3, 1e-8)
	if err != nil {
		t.Fatalf("bound %d: %v", k, err)
	}
	if !circuit.Equal(at, free) {
		t.Fatalf("bound %d changed the result:\n%v\nunbounded:\n%v", k, at, free)
	}
}

// TestSynthesize2QBoundBelowMinCX: the exact 2-qubit path gives up at once
// when the target provably needs more CX than the bound.
func TestSynthesize2QBoundBelowMinCX(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.NewCX(0, 1), gate.NewCX(1, 0), gate.NewCX(0, 1)) // SWAP
	target := c.Unitary()
	if k := MinCXCount(target); k != 3 {
		t.Fatalf("MinCXCount = %d, want 3", k)
	}
	s := New(gateset.IBMEagle)
	ctx := context.Background()
	if _, err := s.SynthesizeContext(synth.WithTwoQubitBound(ctx, 2), target, 2, 1e-8); !errors.Is(err, synth.ErrNoSolution) {
		t.Fatalf("bound 2: err %v, want ErrNoSolution", err)
	}
	out, err := s.SynthesizeContext(synth.WithTwoQubitBound(ctx, 3), target, 2, 1e-8)
	if err != nil {
		t.Fatalf("bound 3: %v", err)
	}
	if got := out.TwoQubitCount(); got != 3 {
		t.Fatalf("bound 3: %d two-qubit gates, want 3", got)
	}
}

// TestSynthesizeContextCancelPrompt: a cancelled context aborts synthesis
// within one structure evaluation even when MaxTime is far away — the
// guarantee that lets the optimizer's cancellation path avoid draining a
// full synthesis deadline.
func TestSynthesizeContextCancelPrompt(t *testing.T) {
	s := New(gateset.IBMQ20)
	s.MaxTime = 30 * time.Second
	rng := rand.New(rand.NewSource(5))
	target := circuit.Random(3, 24, gateset.IBMQ20.Gates, rng).Unitary()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := s.SynthesizeContext(ctx, target, 3, 1e-8); err == nil {
		t.Fatal("cancelled synthesis reported success on a hard 3q target")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled synthesis took %v, want prompt return", elapsed)
	}
}
