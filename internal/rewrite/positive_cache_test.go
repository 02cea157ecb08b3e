package rewrite

import (
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// TestEnginePositiveCacheEngages pins the positive cache on the annealing
// loop's dominant shape: a rejected candidate (Mark, FullPass, Rollback)
// leaves the circuit unchanged, so the next pass over the same rule must
// replay its match sites from the cache instead of rematching — with the
// rollback restoring the verdicts the candidate's own splices destroyed.
func TestEnginePositiveCacheEngages(t *testing.T) {
	rules, err := RulesFor("nam")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	c := circuit.Random(16, 600, gateset.Nam.Gates, rng)
	eng := NewEngine(c)
	before := eng.Snapshot()

	// Warm-up round: every rule records verdicts at (nearly) every anchor.
	for _, r := range rules {
		mark := eng.Mark()
		eng.FullPass(r, 0)
		eng.Rollback(mark)
	}
	st0 := eng.Stats()
	if st0.PositiveHits != 0 && st0.MatchCalls == 0 {
		t.Fatal("warm-up round should be doing fresh matching")
	}

	// Steady state: reject rounds over a warm cache.
	for round := 0; round < 5; round++ {
		for _, r := range rules {
			mark := eng.Mark()
			eng.FullPass(r, 0)
			eng.Rollback(mark)
		}
	}
	st1 := eng.Stats()
	if !circuit.Equal(eng.Circuit(), before) {
		t.Fatal("reject loop mutated the circuit")
	}
	if st1.PositiveHits == 0 {
		t.Fatal("steady-state reject rounds never replayed a cached match")
	}
	if st1.Reinstalls == 0 {
		t.Fatal("rollbacks never reinstalled a positive entry")
	}
	// Per steady round the only admissible fresh match calls are the few
	// anchors shadowed by `used` windows during warm-up; they must be a
	// sliver of the full scan (len(rules) × 600 anchors per round).
	freshPerRound := (st1.MatchCalls - st0.MatchCalls) / 5
	if limit := len(rules) * 600 / 20; freshPerRound > limit {
		t.Errorf("steady-state rounds still rematch %d anchors/round (want < %d)", freshPerRound, limit)
	}
	t.Logf("stats after steady state: %+v", st1)
}

// TestEngineRollbackHeavyPositiveCache is the adversarial companion of
// TestEngineMatchesScratchFullPass: long sequences dominated by nested
// marks and dirty rollbacks, across every rule library. A stale positive
// entry surviving (or being resurrected by) a rollback would surface here
// as a divergence from the from-scratch pipeline, since replayed matches
// feed directly into the applied windows.
func TestEngineRollbackHeavyPositiveCache(t *testing.T) {
	for name, rules := range AllLibraries() {
		name, rules := name, rules
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gs, err := gateset.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			ref := circuit.Random(8, 150, gs.Gates, rng)
			eng := NewEngine(ref)
			ref = ref.Clone()

			for step := 0; step < 250; step++ {
				// Open a transaction, stack 1-3 passes inside it, then
				// reject the whole stack three times out of four.
				mark := eng.Mark()
				depth := 1 + rng.Intn(3)
				inner := make([]int, 0, depth)
				states := []*circuit.Circuit{ref} // states[k] = shadow after k inner passes
				for k := 0; k < depth; k++ {
					r := rules[rng.Intn(len(rules))]
					shadow := states[len(states)-1]
					start := 0
					if shadow.Len() > 0 {
						start = rng.Intn(shadow.Len())
					}
					inner = append(inner, eng.Mark())
					refOut, n1 := FullPass(shadow, r, start)
					if n2 := eng.FullPass(r, start); n1 != n2 {
						t.Fatalf("step %d: rule %s replaced %d sites, scratch %d", step, r.Name, n2, n1)
					}
					states = append(states, refOut)
				}
				switch rng.Intn(4) {
				case 0: // accept the whole stack
					eng.Commit()
					ref = states[depth]
				case 1: // partial rollback: keep a random prefix of the stack
					j := rng.Intn(depth + 1)
					if j < depth {
						eng.Rollback(inner[j])
					}
					eng.Commit()
					ref = states[j]
				default: // dirty rollback of the whole stack
					eng.Rollback(mark)
				}
				if !circuit.Equal(eng.Circuit(), ref) {
					t.Fatalf("step %d: engine diverged from scratch pipeline", step)
				}
				if err := checkAnchorLists(eng); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			st := eng.Stats()
			if st.Rollbacks == 0 || st.PositiveHits == 0 {
				t.Fatalf("test exercised nothing: %+v", st)
			}
			t.Logf("%s: %+v", name, st)
		})
	}
}

// TestRuleHaloDepth checks the compile-time halo sizing invariants for
// every rule in every library: the per-rule radius is at least 1, never
// exceeds the old global bound len(Pattern)+1 it replaced, and the
// per-wire extents sum to the pattern size.
func TestRuleHaloDepth(t *testing.T) {
	for name, rules := range AllLibraries() {
		for _, r := range rules {
			if d := r.HaloDepth(); d < 1 || d > len(r.Pattern)+1 {
				t.Errorf("%s/%s: halo depth %d outside [1, %d]", name, r.Name, d, len(r.Pattern)+1)
			}
			ext := r.WireExtents()
			if len(ext) != r.NumQubits {
				t.Errorf("%s/%s: %d wire extents for %d qubits", name, r.Name, len(ext), r.NumQubits)
				continue
			}
			for q, e := range ext {
				if e < 1 {
					t.Errorf("%s/%s: wire %d has extent %d, want ≥ 1 (unused pattern wire)", name, r.Name, q, e)
				}
				wires := 0
				for _, pg := range r.Pattern {
					for _, pq := range pg.Qubits {
						if pq == q {
							wires++
						}
					}
				}
				if e != wires {
					t.Errorf("%s/%s: wire %d extent %d, want %d", name, r.Name, q, e, wires)
				}
			}
		}
	}
	// A single-gate pattern has BFS eccentricity 0, so its halo radius is
	// exactly 1 — pin one known rule so the derivation can't silently grow.
	rules, err := RulesFor("nam")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if len(r.Pattern) == 1 {
			if d := r.HaloDepth(); d != 1 {
				t.Errorf("%s: single-gate pattern has halo depth %d, want 1", r.Name, d)
			}
		}
	}
}
