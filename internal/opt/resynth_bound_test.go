package opt

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/rewrite"
	"github.com/guoq-dev/guoq/internal/synth/numeric"
)

// TestResynthNeverAddsTwoQubitGates: under a context marked for the
// two-qubit objective, propose bounds the numeric synthesizer by the
// region's two-qubit count, so over seeded regions of a suite circuit no
// replacement carries more two-qubit gates than the region it replaces.
func TestResynthNeverAddsTwoQubitGates(t *testing.T) {
	c := gateset.MustTranslate(benchmarks.BarencoTof(4), gateset.IBMEagle)
	ns := numeric.New(gateset.IBMEagle)
	ns.MaxTime = 200 * time.Millisecond
	tr := &ResynthTransformation{Synth: ns, MaxQubits: 3, DeclaredEps: 1e-8}
	ctx := withRegionBound(context.Background(), TwoQubitCost())
	proposed := 0
	for seed := int64(1); seed <= 12; seed++ {
		region, replacement, _, ok := tr.propose(ctx, c, 1e-8, rand.New(rand.NewSource(seed)))
		if !ok {
			continue
		}
		proposed++
		if got, limit := replacement.TwoQubitCount(), region.Extract(c).TwoQubitCount(); got > limit {
			t.Errorf("seed %d: replacement has %d two-qubit gates, region %d", seed, got, limit)
		}
	}
	if proposed == 0 {
		t.Fatal("no seed produced a replacement (test exercised nothing)")
	}
}

// TestRegionBoundFollowsCost: the bound is attached only to a marked
// context, and only when no replacement with more two-qubit gates can be
// cheaper under the marked cost.
func TestRegionBoundFollowsCost(t *testing.T) {
	c := circuit.New(3)
	c.Append(
		gate.New(gate.H, []int{0}, nil), gate.New(gate.CX, []int{0, 1}, nil), gate.New(gate.T, []int{1}, nil),
		gate.New(gate.CX, []int{1, 2}, nil), gate.New(gate.H, []int{2}, nil),
	)
	r := &circuit.Region{Lo: 0, Hi: 4, Indices: []int{0, 1, 2, 3, 4}, Qubits: []int{0, 1, 2}}
	bg := context.Background()
	if _, ok := regionBound(bg, c, r); ok {
		t.Error("unmarked context: bound attached")
	}
	if k, ok := regionBound(withRegionBound(bg, TwoQubitCost()), c, r); !ok || k != 2 {
		t.Errorf("two-qubit cost: bound (%d, %v), want (2, true)", k, ok)
	}
	// Three CX alone are fewer gates than the region's five.
	if _, ok := regionBound(withRegionBound(bg, GateCountCost()), c, r); ok {
		t.Error("gate-count cost: bound attached though 3 CX cost less than the region")
	}
	// Dropping the region's T pays for an extra CX under the T objective.
	if _, ok := regionBound(withRegionBound(bg, TCost()), c, r); ok {
		t.Error("T cost: bound attached though 3 CX cost less than the region")
	}
	oneQ := circuit.New(2)
	oneQ.Append(gate.New(gate.H, []int{0}, nil), gate.New(gate.H, []int{1}, nil))
	r1 := &circuit.Region{Lo: 0, Hi: 1, Indices: []int{0, 1}, Qubits: []int{0, 1}}
	if _, ok := regionBound(withRegionBound(bg, TwoQubitCost()), oneQ, r1); ok {
		t.Error("region without two-qubit gates: bound attached")
	}
}

// ctxProbe is a slow transformation that records whether each engine
// application saw a context marked by withRegionBound.
type ctxProbe struct{ marked, unmarked int }

func (p *ctxProbe) Name() string     { return "ctxprobe" }
func (p *ctxProbe) Epsilon() float64 { return 0 }
func (p *ctxProbe) Slow() bool       { return true }
func (p *ctxProbe) Apply(c *circuit.Circuit, _ float64, _ *rand.Rand) (*circuit.Circuit, float64, bool) {
	p.unmarked++
	return c, 0, false
}
func (p *ctxProbe) ApplyEngine(*rewrite.Engine, float64, *rand.Rand) (float64, bool) {
	p.unmarked++
	return 0, false
}
func (p *ctxProbe) ApplyEngineContext(ctx context.Context, _ *rewrite.Engine, _ float64, _ *rand.Rand) (float64, bool) {
	if _, ok := ctx.Value(regionBoundKey{}).(Cost); ok {
		p.marked++
	} else {
		p.unmarked++
	}
	return 0, false
}

// TestGUOQMarksRegionBoundOnlyWhenCold: the search marks its slow
// transformations' context at a fixed temperature of at least 10, and
// leaves it unmarked for hotter or adaptively steered searches.
func TestGUOQMarksRegionBoundOnlyWhenCold(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.New(gate.CX, []int{0, 1}, nil))
	for _, tc := range []struct {
		name   string
		temp   float64
		scaled bool
		want   bool
	}{
		{"paper temperature", 10, false, true},
		{"colder rung", 20, false, true},
		{"exploring rung", 5, false, false},
		{"adaptive", 10, true, false},
	} {
		p := &ctxProbe{}
		opts := DefaultOptions()
		opts.Temperature = tc.temp
		opts.MaxIters = 8
		opts.TimeBudget = time.Minute
		if tc.scaled {
			opts.tempScale = func() float64 { return 1 }
		}
		GUOQ(c, []Transformation{p}, opts)
		if got := p.marked > 0; got != tc.want || p.marked+p.unmarked == 0 || (tc.want && p.unmarked > 0) {
			t.Errorf("%s: %d marked, %d unmarked applications, want marked=%v", tc.name, p.marked, p.unmarked, tc.want)
		}
	}
}
