package circuit

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/gate"
)

// equalDAG asserts that two DAG views over equal circuits agree on every
// wire list and every per-wire link.
func equalDAG(t *testing.T, got, want *DAG) {
	t.Helper()
	if !Equal(got.Circuit(), want.Circuit()) {
		t.Fatalf("underlying circuits differ:\n%s\nvs\n%s", got.Circuit(), want.Circuit())
	}
	c := want.Circuit()
	for q := 0; q < c.NumQubits; q++ {
		gw, ww := got.Wire(q), want.Wire(q)
		if len(gw) != len(ww) {
			t.Fatalf("wire %d length %d, want %d", q, len(gw), len(ww))
		}
		for i := range gw {
			if gw[i] != ww[i] {
				t.Fatalf("wire %d entry %d = %d, want %d", q, i, gw[i], ww[i])
			}
		}
	}
	for i, g := range c.Gates {
		for _, q := range g.Qubits {
			if gn, wn := got.NextOnWire(i, q), want.NextOnWire(i, q); gn != wn {
				t.Fatalf("gate %d next on wire %d = %d, want %d", i, q, gn, wn)
			}
			if gp, wp := got.PrevOnWire(i, q), want.PrevOnWire(i, q); gp != wp {
				t.Fatalf("gate %d prev on wire %d = %d, want %d", i, q, gp, wp)
			}
		}
	}
}

// randomGates draws k random gates over n qubits from the default vocab.
func randomGates(n, k int, rng *rand.Rand) []gate.Gate {
	c := Random(n, k, DefaultTestVocab, rng)
	return c.Gates
}

// checkDAGNaive asserts that d agrees with links computed naively from its
// circuit: each wire lists exactly the gates on that qubit, and every
// link, through Links, NextOnWire/PrevOnWire, Successors and
// Predecessors, names the neighbouring gate on that wire.
func checkDAGNaive(t *testing.T, d *DAG) {
	t.Helper()
	c := d.Circuit()
	for q := 0; q < c.NumQubits; q++ {
		var want []int
		for i, g := range c.Gates {
			if g.OnQubit(q) {
				want = append(want, i)
			}
		}
		got := d.Wire(q)
		if len(got) != len(want) {
			t.Fatalf("wire %d = %v, want %v", q, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("wire %d = %v, want %v", q, got, want)
			}
		}
	}
	for i, g := range c.Gates {
		next, prev := d.Links(i)
		if len(next) != len(g.Qubits) || len(prev) != len(g.Qubits) {
			t.Fatalf("gate %d: %d/%d links for %d qubits", i, len(next), len(prev), len(g.Qubits))
		}
		var succ, pred []int
		for k, q := range g.Qubits {
			wn, wp := -1, -1
			for j := i + 1; j < len(c.Gates) && wn < 0; j++ {
				if c.Gates[j].OnQubit(q) {
					wn = j
				}
			}
			for j := i - 1; j >= 0 && wp < 0; j-- {
				if c.Gates[j].OnQubit(q) {
					wp = j
				}
			}
			if next[k] != wn || d.NextOnWire(i, q) != wn {
				t.Fatalf("gate %d next on wire %d = %d/%d, want %d", i, q, next[k], d.NextOnWire(i, q), wn)
			}
			if prev[k] != wp || d.PrevOnWire(i, q) != wp {
				t.Fatalf("gate %d prev on wire %d = %d/%d, want %d", i, q, prev[k], d.PrevOnWire(i, q), wp)
			}
			if wn >= 0 && !containsInt(succ, wn) {
				succ = append(succ, wn)
			}
			if wp >= 0 && !containsInt(pred, wp) {
				pred = append(pred, wp)
			}
		}
		if got := d.Successors(i); fmt.Sprint(got) != fmt.Sprint(succ) {
			t.Fatalf("gate %d successors %v, want %v", i, got, succ)
		}
		if got := d.Predecessors(i); fmt.Sprint(got) != fmt.Sprint(pred) {
			t.Fatalf("gate %d predecessors %v, want %v", i, got, pred)
		}
	}
}

// spliceCases counts the window shapes a random MultiSplice chain drew.
type spliceCases struct {
	adjacent, insertion, deletion, atZero, atEnd, multi int
}

// randomWindows draws 1–4 ascending, non-overlapping windows over c:
// adjacent windows, pure insertions (Hi == Lo-1), pure deletions (empty
// Repl), and windows touching index 0 or the last gate all occur.
func randomWindows(c *Circuit, rng *rand.Rand, cs *spliceCases) []SpliceWindow {
	n := len(c.Gates)
	k := 1 + rng.Intn(4)
	if k > 1 {
		cs.multi++
	}
	var ws []SpliceWindow
	cur := 0 // the first index the next window may start at
	for j := 0; j < k && cur <= n; j++ {
		lo := cur
		if j == 0 && rng.Intn(4) != 0 || j > 0 && rng.Intn(3) != 0 {
			lo += rng.Intn(min(n-cur, 12) + 1)
		}
		hi := lo - 1
		if lo < n && rng.Intn(5) != 0 {
			hi = lo + rng.Intn(min(n-lo, 5))
			if j == k-1 && rng.Intn(5) == 0 {
				hi = n - 1
			}
		}
		var repl []gate.Gate
		if hi < lo || rng.Intn(4) != 0 {
			repl = randomGates(c.NumQubits, 1+rng.Intn(4), rng)
		}
		switch {
		case hi < lo:
			cs.insertion++
		case len(repl) == 0:
			cs.deletion++
		}
		if j > 0 && lo == cur {
			cs.adjacent++
		}
		if lo == 0 {
			cs.atZero++
		}
		if hi == n-1 || lo == n {
			cs.atEnd++
		}
		ws = append(ws, SpliceWindow{Lo: lo, Hi: hi, Repl: repl})
		cur = max(hi+1, lo)
	}
	return ws
}

// TestDAGSpliceMatchesRebuild drives long chains of random multi-window
// splices (shrinking, growing, pure insertion, pure deletion, adjacent
// windows, windows at either end) through one persistent DAG, switching
// the circuit wholesale to a different qubit count halfway, and checks
// after every step that the DAG agrees with naively computed links and
// is indistinguishable from a from-scratch BuildDAG of the same circuit.
func TestDAGSpliceMatchesRebuild(t *testing.T) {
	var cs spliceCases
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		c := Random(6, 40, DefaultTestVocab, rng)
		d := BuildDAG(c)
		for step := 0; step < 300; step++ {
			if step == 150 {
				nc := Random(3+rng.Intn(6), 30+rng.Intn(20), DefaultTestVocab, rng)
				c.NumQubits, c.Gates = nc.NumQubits, nc.Gates
				d.Rebuild()
				checkDAGNaive(t, d)
			}
			if step%50 == 0 {
				// A single-window Splice, the legacy entry point.
				lo := rng.Intn(len(c.Gates) + 1)
				d.Splice(lo, lo-1, randomGates(c.NumQubits, 2, rng))
			} else {
				d.MultiSplice(randomWindows(c, rng, &cs))
			}
			checkDAGNaive(t, d)
			equalDAG(t, d, BuildDAG(d.Circuit()))
		}
	}
	if cs.adjacent == 0 || cs.insertion == 0 || cs.deletion == 0 || cs.atZero == 0 || cs.atEnd == 0 || cs.multi == 0 {
		t.Fatalf("window shapes not all exercised: %+v", cs)
	}
	t.Logf("window shapes: %+v", cs)
}

// TestDAGRebuildReuse exercises Rebuild after swapping the gate list
// wholesale, including a qubit-count change.
func TestDAGRebuildReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := Random(5, 30, DefaultTestVocab, rng)
	d := BuildDAG(c)
	for step := 0; step < 20; step++ {
		nq := 2 + rng.Intn(6)
		nc := Random(nq, rng.Intn(50), DefaultTestVocab, rng)
		c.NumQubits = nc.NumQubits
		c.Gates = nc.Gates
		d.Rebuild()
		equalDAG(t, d, BuildDAG(c))
	}
}
