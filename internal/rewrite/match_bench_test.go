package rewrite

import (
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// BenchmarkMatchScan{Stateless,Cached} isolate raw match throughput over
// the full nam rule library on a fixed 16-qubit, 600-gate circuit — the
// same workload as BenchmarkEngineFullPass minus splicing. Stateless
// re-runs matchAt at every candidate anchor (each gate named like the
// rule's first pattern gate) each scan; Cached answers anchors from
// the engine's warm per-anchor verdict index (negative skips + positive
// replays), which is the steady state of the annealing loop's dominant
// reject path. Neither is pinned in BENCH_hotloop.json; CI runs each once
// in its benchmark smoke step.
func BenchmarkMatchScanStateless(b *testing.B) { benchMatchScan(b, false) }
func BenchmarkMatchScanCached(b *testing.B)    { benchMatchScan(b, true) }

func benchMatchScan(b *testing.B, cached bool) {
	rng := rand.New(rand.NewSource(2))
	c := circuit.Random(16, 600, gateset.Nam.Gates, rng)
	rules := namRules()
	e := NewEngine(c)
	if cached {
		// Warm pass: record a verdict at (nearly) every (rule, anchor).
		for _, r := range rules {
			used := make([]bool, len(e.c.Gates))
			rc := e.cacheFor(r)
			findMatches(e.c, e.dag, r, e.anchors[rc.kind], 0, e.scratch, used, rc, nil, &e.stats)
		}
	}
	d := circuit.BuildDAG(c)
	s := newMatchScratch()
	used := make([]bool, len(c.Gates))
	var out []*Match
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rules {
			for j := range used {
				used[j] = false
			}
			if cached {
				rc := e.cacheFor(r)
				out = findMatches(e.c, e.dag, r, e.anchors[rc.kind], 0, e.scratch, used, rc, out[:0], &e.stats)
			} else {
				out = findMatches(c, d, r, anchorsOf(c, r.Pattern[0].Name), 0, s, used, nil, out[:0], nil)
			}
		}
	}
}
