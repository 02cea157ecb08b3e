package main

import (
	"context"
	"errors"
	"math/rand"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/rewrite"
	"github.com/guoq-dev/guoq/internal/synth"
	"github.com/guoq-dev/guoq/internal/synth/finite"
	"github.com/guoq-dev/guoq/internal/synth/numeric"
)

// The tracer records spans only at the boundaries the benchmark itself
// owns: it wraps every opt.Transformation the search samples, every
// synth.Synthesizer the resynthesis transformations call, and the opt.Cost
// the search scores with. The program under test is not instrumented.
// Spans are aggregated where they end (count, busy time, useful outcomes);
// synthesis spans are also kept individually for their percentiles.

// span aggregates the spans of one layer boundary.
type span struct {
	calls atomic.Int64
	ok    atomic.Int64
	ns    atomic.Int64
}

func (s *span) end(start time.Time, ok bool) {
	s.ns.Add(int64(time.Since(start)))
	s.calls.Add(1)
	if ok {
		s.ok.Add(1)
	}
}

func (s *span) seconds() float64 { return float64(s.ns.Load()) / 1e9 }

func (s *span) okFrac() float64 { return frac(float64(s.ok.Load()), float64(s.calls.Load())) }

// synthSpans aggregates one synthesizer's calls per subcircuit width.
type synthSpans struct {
	mu        sync.Mutex
	calls     map[int]int
	ok        int
	ns        map[int]time.Duration
	durs3q    []time.Duration
	hits      map[int]int // ErrNoSolution at or past the call's deadline, by width
	hitTime   time.Duration
	totalTime time.Duration
}

func newSynthSpans() *synthSpans {
	return &synthSpans{calls: map[int]int{}, ns: map[int]time.Duration{}, hits: map[int]int{}}
}

func (s *synthSpans) end(start, deadline time.Time, width int, err error) {
	now := time.Now()
	d := now.Sub(start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[width]++
	s.ns[width] += d
	s.totalTime += d
	if width == 3 {
		s.durs3q = append(s.durs3q, d)
	}
	if err == nil {
		s.ok++
	} else if errors.Is(err, synth.ErrNoSolution) && !deadline.IsZero() && !now.Before(deadline) {
		s.hits[width]++
		s.hitTime += d
	}
}

func (s *synthSpans) total() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalTime
}

func (s *synthSpans) hitsByWidth() map[int]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[int]int{}
	for w, n := range s.hits {
		out[w] = n
	}
	return out
}

// tracer holds every span aggregate of one traced run.
type tracer struct {
	rule, cleanup, fuse, fold, resynth, other, cost span
	numeric, finite                                 *synthSpans
}

func newTracer() *tracer {
	return &tracer{numeric: newSynthSpans(), finite: newSynthSpans()}
}

// topLevelSeconds is the busy time of every span the search loop calls
// directly; synthesis runs inside resynthesis spans and is not counted.
func (t *tracer) topLevelSeconds() float64 {
	sum := 0.0
	for _, s := range []*span{&t.rule, &t.cleanup, &t.fuse, &t.fold, &t.resynth, &t.other, &t.cost} {
		sum += s.seconds()
	}
	return sum
}

func (t *tracer) spanFor(name string) *span {
	switch {
	case strings.HasPrefix(name, "rule:"):
		return &t.rule
	case name == "cleanup":
		return &t.cleanup
	case name == "fuse1q":
		return &t.fuse
	case name == "phasefold":
		return &t.fold
	case strings.HasPrefix(name, "resynth:"):
		return &t.resynth
	}
	return &t.other
}

// cost wraps the search's objective.
func (t *tracer) wrapCost(c opt.Cost) opt.Cost {
	return func(x *circuit.Circuit) float64 {
		start := time.Now()
		v := c(x)
		t.cost.end(start, true)
		return v
	}
}

// provider is the default instantiation with every transformation and
// synthesizer wrapped; the portfolio order is unchanged, so seeded runs
// sample exactly what an untraced run samples.
func (t *tracer) provider(gs *gateset.GateSet, io opt.InstantiateOptions) ([]opt.Transformation, error) {
	ts, err := opt.Instantiate(gs, io)
	if err != nil {
		return nil, err
	}
	wrapped := map[synth.Synthesizer]synth.Synthesizer{}
	for i, tr := range ts {
		if r, ok := tr.(*opt.ResynthTransformation); ok {
			w, seen := wrapped[r.Synth]
			if !seen {
				w = t.wrapSynth(r.Synth)
				wrapped[r.Synth] = w
			}
			cp := *r
			cp.Synth = w
			tr = &cp
		}
		ts[i] = t.wrapTransformation(tr)
	}
	return ts, nil
}

// tBase is the part of a transformation wrapper every transformation has.
type tBase struct {
	inner opt.Transformation
	s     *span
}

func (b *tBase) unwrap() opt.Transformation { return b.inner }

func (b *tBase) Name() string     { return b.inner.Name() }
func (b *tBase) Epsilon() float64 { return b.inner.Epsilon() }
func (b *tBase) Slow() bool       { return b.inner.Slow() }

func (b *tBase) Apply(c *circuit.Circuit, eps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	start := time.Now()
	out, e, ok := b.inner.Apply(c, eps, rng)
	b.s.end(start, ok)
	return out, e, ok
}

// The three optional paths, each forwarded only when the wrapped
// transformation has it: hiding one would drop the engine fast path or
// cancellation, and adding one would panic on the type assertion.
type engineM struct{ b *tBase }

func (m engineM) ApplyEngine(e *rewrite.Engine, eps float64, rng *rand.Rand) (float64, bool) {
	start := time.Now()
	x, ok := m.b.inner.(opt.EngineApplier).ApplyEngine(e, eps, rng)
	m.b.s.end(start, ok)
	return x, ok
}

type ctxM struct{ b *tBase }

func (m ctxM) ApplyContext(ctx context.Context, c *circuit.Circuit, eps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	start := time.Now()
	out, x, ok := m.b.inner.(opt.ContextApplier).ApplyContext(ctx, c, eps, rng)
	m.b.s.end(start, ok)
	return out, x, ok
}

type engineCtxM struct{ b *tBase }

func (m engineCtxM) ApplyEngineContext(ctx context.Context, e *rewrite.Engine, eps float64, rng *rand.Rand) (float64, bool) {
	start := time.Now()
	x, ok := m.b.inner.(opt.EngineContextApplier).ApplyEngineContext(ctx, e, eps, rng)
	m.b.s.end(start, ok)
	return x, ok
}

// wrapTransformation returns a wrapper with exactly the optional interface
// set of tr.
func (t *tracer) wrapTransformation(tr opt.Transformation) opt.Transformation {
	b := &tBase{inner: tr, s: t.spanFor(tr.Name())}
	_, e := tr.(opt.EngineApplier)
	_, c := tr.(opt.ContextApplier)
	_, ec := tr.(opt.EngineContextApplier)
	switch {
	case e && c && ec:
		return struct {
			*tBase
			engineM
			ctxM
			engineCtxM
		}{b, engineM{b}, ctxM{b}, engineCtxM{b}}
	case e && c:
		return struct {
			*tBase
			engineM
			ctxM
		}{b, engineM{b}, ctxM{b}}
	case e && ec:
		return struct {
			*tBase
			engineM
			engineCtxM
		}{b, engineM{b}, engineCtxM{b}}
	case c && ec:
		return struct {
			*tBase
			ctxM
			engineCtxM
		}{b, ctxM{b}, engineCtxM{b}}
	case e:
		return struct {
			*tBase
			engineM
		}{b, engineM{b}}
	case c:
		return struct {
			*tBase
			ctxM
		}{b, ctxM{b}}
	case ec:
		return struct {
			*tBase
			engineCtxM
		}{b, engineCtxM{b}}
	}
	return b
}

// sBase wraps a synthesizer; sCtx adds the context path for synthesizers
// that have it.
type sBase struct {
	inner   synth.Synthesizer
	spans   *synthSpans
	maxTime time.Duration
}

func (s *sBase) Name() string { return s.inner.Name() }

func (s *sBase) deadline(ctx context.Context, start time.Time) time.Time {
	var d time.Time
	if s.maxTime > 0 {
		d = start.Add(s.maxTime)
	}
	if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
		d = cd
	}
	return d
}

func (s *sBase) Synthesize(target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error) {
	start := time.Now()
	out, err := s.inner.Synthesize(target, numQubits, eps)
	s.spans.end(start, s.deadline(context.Background(), start), numQubits, err)
	return out, err
}

type sCtx struct{ *sBase }

func (s sCtx) SynthesizeContext(ctx context.Context, target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error) {
	start := time.Now()
	out, err := s.inner.(synth.ContextSynthesizer).SynthesizeContext(ctx, target, numQubits, eps)
	s.spans.end(start, s.deadline(ctx, start), numQubits, err)
	return out, err
}

// wrapSynth wraps one of the two synthesizers opt.Instantiate builds.
func (t *tracer) wrapSynth(s synth.Synthesizer) synth.Synthesizer {
	b := &sBase{inner: s, spans: t.finite}
	switch x := s.(type) {
	case *numeric.Synthesizer:
		b.spans, b.maxTime = t.numeric, x.MaxTime
	case *finite.Synthesizer:
		b.maxTime = x.MaxTime
	}
	if _, ok := s.(synth.ContextSynthesizer); ok {
		return sCtx{b}
	}
	return b
}

// runtimeSample reads the Go runtime's allocation and GC counters.
type runtimeSample struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		ss[i].Name = k
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the q-quantile of ds (nearest rank), 0 for none.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// synthMetrics adds one synthesizer's per-layer metrics under prefix.
func synthMetrics(m metricSet, prefix string, s *synthSpans) {
	s.mu.Lock()
	defer s.mu.Unlock()
	calls := 0
	for _, n := range s.calls {
		calls += n
	}
	m.add(prefix+"calls_2q", float64(s.calls[2]), "count")
	m.add(prefix+"calls_3q", float64(s.calls[3]), "count")
	m.add(prefix+"s_2q", s.ns[2].Seconds(), "s")
	m.add(prefix+"s_3q", s.ns[3].Seconds(), "s")
	m.add(prefix+"p50_ms_3q", ms(quantile(s.durs3q, 0.5)), "ms")
	m.add(prefix+"p90_ms_3q", ms(quantile(s.durs3q, 0.9)), "ms")
	m.add(prefix+"ok_frac", frac(float64(s.ok), float64(calls)), "ratio")
	hits := 0
	for _, n := range s.hits {
		hits += n
	}
	m.add(prefix+"deadline_hits", float64(hits), "count")
	m.add(prefix+"deadline_s", s.hitTime.Seconds(), "s")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
