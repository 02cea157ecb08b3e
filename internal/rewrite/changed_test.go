package rewrite

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// The changed-count contract: a pass reports changed == 0 exactly when its
// output is structurally identical to its input. The GUOQ loop relies on
// this to skip deep circuit.Equal compares, and the search trajectory (and
// with it the pinned guardrail counts) depends on it being exact — so fuzz
// it over every gate set, including iterated applications that reach the
// passes' fixpoints, where the subtle no-op cases (identity ladder
// re-emission, order-preserving merges) live.

func TestCleanupChangedMatchesEqual(t *testing.T) {
	ladder, err := gateset.New("adhoc-ladder-cleanup", "", gate.H, gate.S, gate.Sdg, gate.T, gate.Tdg, gate.X, gate.CX)
	if err != nil {
		t.Fatal(err)
	}
	phase, err := gateset.New("adhoc-u1-cleanup", "", gate.H, gate.U1, gate.SX, gate.CX)
	if err != nil {
		t.Fatal(err)
	}
	for _, gs := range append(gateset.All(), ladder, phase) {
		cleanup := func(c *circuit.Circuit) (*circuit.Circuit, int) { return CleanupChangedFor(c, gs) }
		reference := func(c *circuit.Circuit) (*circuit.Circuit, int) { return referenceCleanup(c, gs.Name, gs) }
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 60; trial++ {
			c := circuit.Random(5, 10+rng.Intn(60), gs.Gates, rng)
			checkPassRounds(t, gs.Name, trial, c, cleanup, reference)
		}
		for i, c := range noOpInputs(t, gs, cleanup) {
			checkPassRounds(t, gs.Name, -1-i, c, cleanup, reference)
		}
	}
}

func TestFuse1QChangedMatchesEqual(t *testing.T) {
	for _, gs := range gateset.All() {
		if !gs.Continuous() {
			continue
		}
		fuse := func(c *circuit.Circuit) (*circuit.Circuit, int) { return Fuse1QChanged(c, gs) }
		reference := func(c *circuit.Circuit) (*circuit.Circuit, int) { return referenceFuse1Q(c, gs) }
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 60; trial++ {
			c := circuit.Random(5, 10+rng.Intn(60), gs.Gates, rng)
			checkPassRounds(t, gs.Name, trial, c, fuse, reference)
		}
		for i, c := range noOpInputs(t, gs, fuse) {
			checkPassRounds(t, gs.Name, -1-i, c, fuse, reference)
		}
	}
}

// checkPassRounds applies pass up to three times (stopping at a no-op) and
// requires, each round, the contract plus agreement with the reference
// implementation: the same change count and the same output QASM. A zero
// count must return the input itself. Trial numbers below zero are the
// no-op workload inputs.
func checkPassRounds(t *testing.T, gsName string, trial int, c *circuit.Circuit, pass, reference func(*circuit.Circuit) (*circuit.Circuit, int)) {
	t.Helper()
	for round := 0; round < 3; round++ {
		out, changed := pass(c)
		if got, want := changed > 0, !circuit.Equal(out, c); got != want {
			t.Fatalf("%s trial %d round %d: changed=%d but Equal=%v\nin:  %s\nout: %s",
				gsName, trial, round, changed, !want, c, out)
		}
		if changed == 0 && out != c {
			t.Fatalf("%s trial %d round %d: a no-op returned a new circuit", gsName, trial, round)
		}
		refOut, refChanged := reference(c)
		if changed != refChanged || out.WriteQASM() != refOut.WriteQASM() {
			t.Fatalf("%s trial %d round %d: changed=%d, reference %d\nin:  %s\nout: %s\nref: %s",
				gsName, trial, round, changed, refChanged, c, out, refOut)
		}
		if changed == 0 {
			return
		}
		c = out
	}
}

// noOpInputs returns inputs shaped like the search's steady state: suite
// families translated to gs and iterated to pass's fixpoint, plus copies
// with one gate perturbed (an angle moved, a gate doubled, or a gate
// removed).
func noOpInputs(t *testing.T, gs *gateset.GateSet, pass func(*circuit.Circuit) (*circuit.Circuit, int)) []*circuit.Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	var out []*circuit.Circuit
	for _, fam := range []*circuit.Circuit{benchmarks.Adder(3), benchmarks.QFT(4), benchmarks.BarencoTof(4)} {
		c, err := gateset.Translate(fam, gs)
		if err != nil {
			continue // e.g. QFT's angles have no exact Clifford+T form
		}
		for round := 0; round < 20; round++ {
			next, changed := pass(c)
			if changed == 0 {
				break
			}
			c = next
		}
		out = append(out, c)
		for k := 0; k < 6 && c.Len() > 0; k++ {
			p := c.Clone()
			i := rng.Intn(p.Len())
			switch g := p.Gates[i]; {
			case len(g.Params) > 0 && k%3 == 0:
				g.Params[0] += math.Pi / 4
			case k%3 == 1:
				p.Gates = slices.Insert(p.Gates, i, g.Clone())
			default:
				p.Gates = slices.Delete(p.Gates, i, i+1)
			}
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s: no suite family translates", gs.Name)
	}
	return out
}

// TestCleanupForAdHocFiniteSet pins the regression where the z-phase merge
// emitted a non-native rz for gate sets that are not name-addressable: an
// unregistered finite set must get its π/4 ladder (or keep the run) —
// never a continuous rotation outside its basis.
func TestCleanupForAdHocFiniteSet(t *testing.T) {
	gs, err := gateset.New("adhoc-ft-cleanup", "fault tolerant",
		gate.H, gate.S, gate.Sdg, gate.T, gate.Tdg, gate.X, gate.CZ)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(1)
	c.Append(gate.NewT(0), gate.NewT(0))
	out, changed := CleanupChangedFor(c, gs)
	if changed == 0 {
		t.Fatal("t·t merge not detected")
	}
	if !gs.IsNative(out) {
		t.Fatalf("cleanup emitted non-native gates: %v", out.Gates)
	}
	if out.Len() != 1 || out.Gates[0].Name != gate.S {
		t.Fatalf("t·t should merge to s, got %v", out.Gates)
	}
	// A set with no z-phase vocabulary at all must keep the run untouched.
	bare, err := gateset.New("adhoc-bare-cleanup", "", gate.H, gate.Z, gate.CZ)
	if err != nil {
		t.Fatal(err)
	}
	zz := circuit.New(1)
	zz.Append(gate.NewZ(0), gate.NewH(0), gate.NewZ(0))
	out2, _ := CleanupChangedFor(zz, bare)
	if !bare.IsNative(out2) {
		t.Fatalf("cleanup pushed a bare set out of basis: %v", out2.Gates)
	}
}

// The cleanup pre-screen skips the inverse-pair matrix check for a z-phase
// gate next to a never-diagonal gate. It must never skip a pair that the
// check would cancel: every never-diagonal gate has an off-diagonal entry,
// and no such pair multiplies to a multiple of the identity, in either
// order, at any sampled angle.
func TestCleanupDiagonalPrescreenExact(t *testing.T) {
	var never []gate.Name
	for _, n := range gate.Names() {
		if !neverDiagonal(n) {
			continue
		}
		never = append(never, n)
		m := gate.Matrix(gate.New(n, []int{0}, nil))
		if cmplx.Abs(m.At(0, 1))+cmplx.Abs(m.At(1, 0)) < 1e-9 {
			t.Fatalf("%s is diagonal but listed as never diagonal", n)
		}
	}
	if len(never) != 5 {
		t.Fatalf("neverDiagonal lists %v, want x, y, h, sx, sxdg", never)
	}
	phases := []gate.Gate{gate.NewZ(0), gate.NewS(0), gate.NewSdg(0), gate.NewT(0), gate.NewTdg(0)}
	for _, a := range []float64{0, 1e-13, math.Pi / 4, math.Pi / 2, math.Pi, -math.Pi / 2, 2.3} {
		phases = append(phases, gate.NewRz(a, 0), gate.NewU1(a, 0))
	}
	for _, pg := range phases {
		if _, ok := gate.ZPhase(pg); !ok {
			t.Fatalf("%s is not a z-phase gate", pg)
		}
		for _, n := range never {
			ng := gate.New(n, []int{0}, nil)
			for _, prod := range []linalg.Matrix{
				linalg.Mul(gate.Matrix(pg), gate.Matrix(ng)),
				linalg.Mul(gate.Matrix(ng), gate.Matrix(pg)),
			} {
				if linalg.EqualUpToPhase(prod, linalg.Identity(2), 1e-10) {
					t.Fatalf("%s · %s is ∝ I, but the pre-screen skips it", pg, ng)
				}
			}
		}
	}
}
