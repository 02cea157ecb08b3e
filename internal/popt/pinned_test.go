package popt

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
)

// tiledCircuit lays suite-family instances, translated to IBM Eagle, over
// contiguous qubit slices of a 10-qubit register until it holds at least
// gates gates, then relabels the qubits with a permutation drawn from
// seed. The tiling itself is fixed; only the labelling varies by seed.
func tiledCircuit(t *testing.T, gates int, seed int64) *circuit.Circuit {
	t.Helper()
	const qubits = 10
	builds := []func(int) *circuit.Circuit{
		benchmarks.Adder, benchmarks.QFT, benchmarks.BarencoTof,
		benchmarks.Tof, benchmarks.VBEAdder, benchmarks.GF2Mult,
	}
	var pieces []*circuit.Circuit
	for _, b := range builds {
		for _, w := range []int{2, 3, 4} {
			p, err := gateset.Translate(b(w), gateset.IBMEagle)
			if err != nil {
				t.Fatal(err)
			}
			if p.NumQubits <= qubits {
				pieces = append(pieces, p)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	out := circuit.New(qubits)
	for out.Len() < gates {
		p := pieces[rng.Intn(len(pieces))]
		lo := rng.Intn(qubits - p.NumQubits + 1)
		mapping := make([]int, p.NumQubits)
		for i := range mapping {
			mapping[i] = lo + i
		}
		out.Append(p.MapQubits(mapping, qubits).Gates...)
	}
	return out.MapQubits(rand.New(rand.NewSource(seed)).Perm(qubits), qubits)
}

// TestFixpointOutputPinned pins the exact output of a synchronous,
// iteration-bounded fixpoint run over a tiled suite circuit, with the
// ε = 0 transformations only (rules, cleanup, fusion), so nothing in the
// run depends on the clock. Performance work on the rewrite engine, the
// DAG and the ε = 0 passes promises byte-identical output; the digests
// were captured from the implementation that visited every anchor in
// every full pass and kept per-gate link rows. A digest change means the
// search took a different path — a behaviour change, not a refactor.
func TestFixpointOutputPinned(t *testing.T) {
	all, err := opt.Instantiate(gateset.IBMEagle, opt.InstantiateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var fast []opt.Transformation
	for _, tr := range all {
		if !tr.Slow() {
			fast = append(fast, tr)
		}
	}
	want := map[int64]string{
		1: "ab5cd2efebf55ad58c4e1983345420491335eb50a69450f4ac5ee7f4dafb79ba",
		2: "aa30b31f5aaabe98b77e70564f3645db99e692ad598db56c3ad4598ec2a78791",
	}
	for _, seed := range []int64{1, 2} {
		c := tiledCircuit(t, 3000, seed)
		so := opt.DefaultOptions()
		so.Cost = opt.TwoQubitCost()
		so.Seed = seed
		so.Async = false
		so.TimeBudget = 0
		so.MaxIters = 40000
		res := Fixpoint(c, fast, Options{Search: so, Workers: 2, RoundIters: 1000})
		sum := sha256.Sum256([]byte(res.Best.WriteQASM()))
		got := hex.EncodeToString(sum[:])
		t.Logf("seed %d: %d -> %d gates, %d iters, sha256 %s", seed, c.Len(), res.Best.Len(), res.Iters, got)
		if got != want[seed] {
			t.Errorf("seed %d: output sha256 %s, want %s", seed, got, want[seed])
		}
	}
}
