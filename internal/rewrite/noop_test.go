package rewrite

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/phasepoly"
)

// eagleRun returns an ibm-eagle single-qubit run on qubit q in its
// fused form, which fusion re-emits unchanged.
func eagleRun(t *testing.T, q int) []gate.Gate {
	t.Helper()
	c := circuit.New(q + 1)
	c.Append(gate.NewU3(0.3, 1.1, -0.4, q))
	c, err := gateset.Translate(c, gateset.IBMEagle)
	if err != nil {
		t.Fatal(err)
	}
	for changed := 1; changed > 0; {
		c, changed = referenceFuse1Q(c, gateset.IBMEagle)
	}
	if c.Len() < 2 {
		t.Fatalf("fused run has %d gates, want a run", c.Len())
	}
	return c.Gates
}

func TestFuseMemoIgnoresQubits(t *testing.T) {
	c := circuit.New(3)
	c.Append(eagleRun(t, 0)...)
	n := c.Len()
	c.Append(eagleRun(t, 2)...)
	run0, run2 := make([]int, n), make([]int, n)
	for i := range run0 {
		run0[i], run2[i] = i, n+i
	}
	f := fuserPool.New().(*fuser)
	f.reset(c.NumQubits, gateset.IBMEagle)
	if fused := f.fuse(c, run0, 0); fused != nil {
		t.Fatalf("a minimal ibm-eagle run fused to %v", fused)
	}
	if len(f.memo) != 1 {
		t.Fatalf("memo holds %d verdicts after one run, want 1", len(f.memo))
	}
	key := string(f.key)
	if fused := f.fuse(c, run2, 2); fused != nil {
		t.Fatalf("the same run on qubit 2 fused to %v", fused)
	}
	if len(f.memo) != 1 || string(f.key) != key {
		t.Fatalf("the run on qubit 2 was keyed apart from the run on qubit 0 (%d verdicts)", len(f.memo))
	}
	if out, changed := Fuse1QChanged(c, gateset.IBMEagle); changed != 0 || out != c {
		t.Fatalf("Fuse1QChanged changed a fused circuit (%d)", changed)
	}
}

func TestFuseMemoPerGateSet(t *testing.T) {
	u3Only, err := gateset.New("adhoc-u3-fuse-memo", "", gate.U3, gate.CX)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(1)
	c.Append(eagleRun(t, 0)...)
	run := make([]int, c.Len())
	for i := range run {
		run[i] = i
	}
	f := fuserPool.New().(*fuser)
	f.reset(1, gateset.IBMEagle)
	if fused := f.fuse(c, run, 0); fused != nil || len(f.memo) != 1 {
		t.Fatalf("ibm-eagle: fused %v, %d verdicts", fused, len(f.memo))
	}
	// The same run is several gates where a u3-only set needs one: the
	// built-in set's "keeps itself" verdict must not carry over.
	f.reset(1, u3Only)
	fused := f.fuse(c, run, 0)
	if len(fused) != 1 || fused[0].Name != gate.U3 {
		t.Fatalf("u3-only set: fused %v, want one u3", fused)
	}
	if _, changed := Fuse1QChanged(c, u3Only); changed == 0 {
		t.Fatal("Fuse1QChanged kept a multi-gate run under a u3-only set")
	}
}

// TestNoOpPassesDoNotAllocate pins the no-op path of the three
// whole-circuit ε = 0 passes: at its fixpoint, a 256-gate ibm-eagle
// window costs a cleanup, a fold, or (once the verdict memo is warm) a
// fusion no allocation at all.
func TestNoOpPassesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	gs := gateset.IBMEagle
	full, err := gateset.Translate(benchmarks.Adder(8), gs)
	if err != nil {
		t.Fatal(err)
	}
	window := circuit.New(full.NumQubits)
	window.Gates = full.Gates[:256]
	for _, tc := range []struct {
		name string
		pass func(*circuit.Circuit) (*circuit.Circuit, int)
	}{
		{"cleanup", func(c *circuit.Circuit) (*circuit.Circuit, int) { return CleanupChangedFor(c, gs) }},
		{"fold", func(c *circuit.Circuit) (*circuit.Circuit, int) { return phasepoly.FoldChangedFor(c, gs) }},
		{"fuse", func(c *circuit.Circuit) (*circuit.Circuit, int) { return Fuse1QChanged(c, gs) }},
	} {
		c := window
		for round := 0; ; round++ {
			out, changed := tc.pass(c)
			if changed == 0 {
				break
			}
			if round == 20 {
				t.Fatalf("%s: no fixpoint in 20 rounds", tc.name)
			}
			c = out
		}
		tc.pass(c) // warm the pool and the fusion memo
		if n := testing.AllocsPerRun(50, func() { tc.pass(c) }); n != 0 {
			t.Errorf("%s: %v allocs per no-op call on a %d-gate window, want 0", tc.name, n, c.Len())
		}
	}
}

// TestPassesShareScratchConcurrently runs the three passes from several
// goroutines at once, as concurrent window searches do: the pooled scratch
// (and fusion's verdict memo) must give every call the reference's result.
func TestPassesShareScratchConcurrently(t *testing.T) {
	type job struct {
		gs   *gateset.GateSet
		c    *circuit.Circuit
		want [3]string
	}
	rng := rand.New(rand.NewSource(23))
	var jobs []job
	for _, gs := range []*gateset.GateSet{gateset.IBMEagle, gateset.Nam, gateset.IBMQ20} {
		for k := 0; k < 4; k++ {
			c := circuit.Random(6, 40+rng.Intn(80), gs.Gates, rng)
			clean, _ := referenceCleanup(c, gs.Name, gs)
			fused, _ := referenceFuse1Q(c, gs)
			folded := phasepoly.FoldFor(c, gs)
			jobs = append(jobs, job{gs, c, [3]string{clean.WriteQASM(), fused.WriteQASM(), folded.WriteQASM()}})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j := jobs[(w*7+i)%len(jobs)]
				clean, _ := CleanupChangedFor(j.c, j.gs)
				fused, _ := Fuse1QChanged(j.c, j.gs)
				folded, _ := phasepoly.FoldChangedFor(j.c, j.gs)
				for k, got := range []*circuit.Circuit{clean, fused, folded} {
					if got.WriteQASM() != j.want[k] {
						t.Errorf("worker %d, %s job %d, pass %d: output differs from the serial result", w, j.gs.Name, (w*7+i)%len(jobs), k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
