package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/guoq-dev/guoq"
	"github.com/guoq-dev/guoq/internal/baselines"
	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/obs"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/verify"
)

// optJob is one optimization: an input, how to optimize it, and where the
// time-to-quality checkpoint sits.
type optJob struct {
	name       string
	gs         *gateset.GateSet
	in         *circuit.Circuit
	cost       opt.Cost
	opts       guoq.Options
	checkpoint time.Duration
}

// optOutcome is what one optimization produced.
type optOutcome struct {
	out      *circuit.Circuit
	errBound float64
	iters    int
	accepted int
	wall     time.Duration
	ttqCost  float64 // best cost at the checkpoint
}

// runPublic optimizes through the public Start API, reading the best cost
// at the checkpoint from the session's improvement events.
func runPublic(j optJob) (optOutcome, error) {
	start := time.Now()
	sess, err := guoq.Start(context.Background(), j.in, j.opts)
	if err != nil {
		return optOutcome{}, err
	}
	ttq := make(chan float64, 1)
	go func() {
		best := j.cost(j.in)
		for ev := range sess.Events() {
			if ev.Improved && ev.Elapsed <= j.checkpoint {
				best = ev.BestCost
			}
		}
		ttq <- best
	}()
	out, res, err := sess.Wait()
	wall := time.Since(start)
	best := <-ttq
	if err != nil {
		return optOutcome{}, err
	}
	return optOutcome{out: out, errBound: res.Error, iters: res.Iters, accepted: res.Accepted, wall: wall, ttqCost: best}, nil
}

// runTraced makes the same run as runPublic with the transformations,
// synthesizers and cost wrapped by tr. guoq.Start has no way to wrap its
// portfolio, so this assembles the runner the way Start does; only the
// registry differs, and its build is the default portfolio with every
// entry wrapped. The traced run reports no time-to-quality.
func runTraced(j optJob, tr *tracer, reg *obs.Registry) (optOutcome, error) {
	eps := j.opts.Epsilon
	if eps == 0 {
		eps = 1e-8
	}
	r := baselines.NewGUOQ(eps)
	r.Async = j.opts.Async
	r.Parallelism = j.opts.Parallelism
	r.Fixpoint = j.opts.Fixpoint
	r.MaxIters = j.opts.MaxIters
	r.Metrics = opt.NewMetrics(reg)
	r.Registry = opt.NewRegistry(tr.provider)
	r.OnEvent = func(opt.Event) {}
	start := time.Now()
	out, res := r.OptimizeStatsContext(context.Background(), j.in, j.gs, tr.wrapCost(j.cost), j.opts.Budget, j.opts.Seed)
	wall := time.Since(start)
	return optOutcome{out: out, errBound: res.BestError, iters: res.Iters, accepted: res.Accepted, wall: wall}, nil
}

// checkOutput reports why an optimized circuit is not acceptable: it must
// be native to its target and within its reported ε of its input.
func checkOutput(j optJob, o optOutcome) error {
	if !j.gs.IsNative(o.out) {
		return fmt.Errorf("%s: output is not native to %s", j.name, j.gs.Name)
	}
	if o.out.NumQubits != j.in.NumQubits {
		return fmt.Errorf("%s: output has %d qubits, input %d", j.name, o.out.NumQubits, j.in.NumQubits)
	}
	if j.in.NumQubits <= 9 {
		if d := guoq.Distance(j.in, o.out); d > o.errBound+1e-6 {
			return fmt.Errorf("%s: distance %g exceeds reported ε %g", j.name, d, o.errBound)
		}
		return nil
	}
	res, err := verify.Equivalent(j.in, o.out, verify.Options{Samples: 1, Tolerance: 1e-6 + o.errBound, Seed: 1})
	if err != nil {
		return fmt.Errorf("%s: %w", j.name, err)
	}
	if !res.Equivalent {
		return fmt.Errorf("%s: state-vector check failed (worst overlap %.12f)", j.name, res.WorstOverlap)
	}
	return nil
}

// checker runs checkOutput once per distinct (job, output) pair.
type checker struct {
	seen      map[string]error
	attempted int
	failed    int
	errs      []string
}

func newChecker() *checker { return &checker{seen: map[string]error{}} }

func (c *checker) check(j optJob, o optOutcome) {
	c.attempted++
	key := j.name + "\x00" + o.out.WriteQASM()
	err, ok := c.seen[key]
	if !ok {
		err = checkOutput(j, o)
		c.seen[key] = err
	}
	if err != nil {
		c.fail(err.Error())
	}
}

func (c *checker) fail(msg string) {
	c.failed++
	if len(c.errs) < 10 {
		c.errs = append(c.errs, msg)
	}
}

// totals accumulates the end-to-end quantities over a set of passes.
type totals struct {
	passWalls            []float64
	wall                 time.Duration
	iters, accepted      int
	inCost, outCost, ttq float64
	rt                   runtimeSample
}

func (t *totals) add(j optJob, o optOutcome) {
	t.wall += o.wall
	t.iters += o.iters
	t.accepted += o.accepted
	t.inCost += j.cost(j.in)
	t.outCost += j.cost(o.out)
	t.ttq += o.ttqCost
}

func (t *totals) endToEnd(m metricSet, setup float64) {
	m.add("setup_s", setup, "s")
	m.add("wall_s", median(t.passWalls), "s")
	m.add("iter_us", frac(float64(t.wall.Microseconds()), float64(t.iters)), "us")
	m.add("cost_ratio", frac(t.outCost, t.inCost), "ratio")
	m.add("ttq_cost_ratio", frac(t.ttq, t.inCost), "ratio")
	m.add("alloc_kb_per_iter", frac(t.rt.allocBytes/1024, float64(t.iters)), "KB")
}

// runPasses runs the jobs as passes (one pass = every job once, in a
// seeded order) until the time budget is spent, at least once, and returns
// the totals with every pass's outcomes in job order.
func runPasses(jobs []optJob, seed int64, budget time.Duration, run func(optJob) (optOutcome, error)) (*totals, [][]optOutcome, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &totals{}
	var passes [][]optOutcome
	begin := time.Now()
	before := readRuntime()
	for len(passes) == 0 || time.Since(begin) < budget {
		order := rng.Perm(len(jobs))
		outs := make([]optOutcome, len(jobs))
		runtime.GC()
		pstart := time.Now()
		for _, i := range order {
			o, err := run(jobs[i])
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", jobs[i].name, err)
			}
			outs[i] = o
		}
		t.passWalls = append(t.passWalls, time.Since(pstart).Seconds())
		for i, o := range outs {
			t.add(jobs[i], o)
		}
		passes = append(passes, outs)
	}
	t.rt = readRuntime().sub(before)
	return t, passes, nil
}

// layerMetrics turns a traced pass into the per-layer metric set. workers
// is the number of concurrent searches the wall time is shared by.
func layerMetrics(m metricSet, tr *tracer, reg *obs.Registry, t *totals, workers int) {
	synthMetrics(m, "synth.numeric_", tr.numeric)
	synthMetrics(m, "synth.finite_", tr.finite)
	synthSeconds := tr.numeric.total().Seconds() + tr.finite.total().Seconds()
	m.add("opt.resynth_calls", float64(tr.resynth.calls.Load()), "count")
	m.add("opt.resynth_s", tr.resynth.seconds(), "s")
	m.add("opt.resynth_ok_frac", tr.resynth.okFrac(), "ratio")
	m.add("opt.resynth_overhead_s", tr.resynth.seconds()-synthSeconds, "s")
	for _, l := range []struct {
		prefix string
		s      *span
	}{{"rewrite.rule_", &tr.rule}, {"rewrite.cleanup_", &tr.cleanup}, {"rewrite.fuse_", &tr.fuse}, {"phasepoly.fold_", &tr.fold}} {
		m.add(l.prefix+"calls", float64(l.s.calls.Load()), "count")
		m.add(l.prefix+"s", l.s.seconds(), "s")
		m.add(l.prefix+"ok_frac", l.s.okFrac(), "ratio")
	}
	snap := reg.Snapshot()
	hits := snap["guoq_engine_cache_hits_total"] + snap["guoq_engine_positive_hits_total"]
	m.add("rewrite.cache_hit_frac", frac(hits, hits+snap["guoq_engine_cache_misses_total"]), "ratio")
	m.add("opt.cost_calls", float64(tr.cost.calls.Load()), "count")
	m.add("opt.cost_s", tr.cost.seconds(), "s")
	capacity := t.wall.Seconds() * float64(workers)
	m.add("opt.search_self_s", capacity-tr.topLevelSeconds(), "s")
	m.add("opt.accept_frac", frac(float64(t.accepted), float64(t.iters)), "ratio")
	if workers > 1 {
		windows := snap["guoq_fixpoint_windows_searched_total"]
		m.add("popt.busy_frac", frac(tr.topLevelSeconds(), capacity), "ratio")
		m.add("popt.windows", windows, "count")
		m.add("popt.adopted_frac", frac(snap["guoq_fixpoint_windows_adopted_total"], windows), "ratio")
	}
	m.add("gc.cpu_frac", frac(t.rt.gcCPU, t.rt.totalCPU), "ratio")
	m.add("gc.cycles", t.rt.gcCycles, "count")
}

// ---------------------------------------------------------------------------
// serial-suite

// suiteSpec names the five suite circuits of serial-suite.
var suiteSpec = []struct{ gateSet, name string }{
	{"ibm-eagle", "barenco_tof_5"},
	{"ibm-eagle", "qft_8"},
	{"ibm-eagle", "adder_4"},
	{"nam", "qft_8"},
	{"cliffordt", "barenco_tof_5"},
}

// suiteOptSeed is the optimizer seed of every serial-suite run: the
// workload gates on cost at a fixed seed and iteration count.
const suiteOptSeed = 1

func suiteJobs(maxIters int) ([]optJob, error) {
	nisq, ftqc := benchmarks.Suite(), benchmarks.CliffordTSuite()
	var jobs []optJob
	for _, s := range suiteSpec {
		gs, err := gateset.ByName(s.gateSet)
		if err != nil {
			return nil, err
		}
		src, cost := nisq, opt.TwoQubitCost()
		if guoq.DefaultObjective(s.gateSet) == guoq.MinimizeT {
			src, cost = ftqc, opt.TCost()
		}
		b, ok := benchmarks.ByName(src, s.name)
		if !ok {
			return nil, fmt.Errorf("suite circuit %s not found", s.name)
		}
		in, err := gateset.Translate(b.Circuit, gs)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, optJob{
			name: s.gateSet + "/" + s.name,
			gs:   gs,
			in:   in,
			cost: cost,
			// Budget 0 keeps the 500 ms synthesis deadline and lets
			// MaxIters alone end the run.
			opts:       guoq.Options{GateSet: s.gateSet, Seed: suiteOptSeed, MaxIters: maxIters},
			checkpoint: 500 * time.Millisecond,
		})
	}
	return jobs, nil
}

// ---------------------------------------------------------------------------
// huge-fixpoint

// hugeFamilies are the suite families tiled into the huge circuit, each
// with the widths it is instantiated at.
var hugeFamilies = []struct {
	build  func(n int) *circuit.Circuit
	params []int
}{
	{benchmarks.Adder, []int{2, 3, 4, 5}},
	{benchmarks.QFT, []int{4, 5, 6, 7, 8}},
	{benchmarks.BarencoTof, []int{3, 4, 5, 6}},
	{benchmarks.Tof, []int{3, 4, 5, 6}},
	{benchmarks.VBEAdder, []int{2, 3}},
	{benchmarks.GF2Mult, []int{2, 3, 4}},
}

// hugeLayoutSeed fixes which family instances the huge circuit tiles and
// where. The benchmark seed only relabels its qubits: how long a fixpoint
// run takes depends on the tiling (the iteration count varied by ±20%
// between tilings), so a fixed tiling keeps runs with different seeds
// comparable while each seed still gives a different input.
const hugeLayoutSeed = 1

// hugeOptSeed is the optimizer seed of every huge-fixpoint run.
const hugeOptSeed = 1

// hugeCircuit lays suite-family instances over random contiguous qubit
// slices of an n-qubit register (slices overlap freely) until the
// target-native circuit reaches the requested gate count, then relabels
// the qubits with a permutation drawn from seed.
func hugeCircuit(gs *gateset.GateSet, qubits, gates int, seed int64) (*circuit.Circuit, error) {
	rng := rand.New(rand.NewSource(hugeLayoutSeed))
	var pieces []*circuit.Circuit
	for _, f := range hugeFamilies {
		for _, p := range f.params {
			c, err := gateset.Translate(f.build(p), gs)
			if err != nil {
				return nil, err
			}
			if c.NumQubits <= qubits {
				pieces = append(pieces, c)
			}
		}
	}
	out := circuit.New(qubits)
	for out.Len() < gates {
		p := pieces[rng.Intn(len(pieces))]
		lo := rng.Intn(qubits - p.NumQubits + 1)
		mapping := make([]int, p.NumQubits)
		for i := range mapping {
			mapping[i] = lo + i
		}
		if rng.Intn(2) == 0 { // mirror the slice half of the time
			for i, j := 0, len(mapping)-1; i < j; i, j = i+1, j-1 {
				mapping[i], mapping[j] = mapping[j], mapping[i]
			}
		}
		out.Append(p.MapQubits(mapping, qubits).Gates...)
	}
	return out.MapQubits(rand.New(rand.NewSource(seed)).Perm(qubits), qubits), nil
}

// optWorkload runs jobs untraced for the whole budget (end-to-end mode),
// or untraced then traced for half the budget each (trace mode).
// deterministic marks workloads whose output must not vary between runs
// of one input: then every pass, traced or not, must produce the same
// circuit byte for byte.
func optWorkload(o options, jobs []optJob, setup float64, workers int, deterministic bool) (*report, error) {
	rep := newReport()
	chk := newChecker()
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	base, passes, err := runPasses(jobs, o.seed, budget, runPublic)
	if err != nil {
		return nil, err
	}
	if o.trace {
		tr, reg := newTracer(), obs.NewRegistry()
		traced, tpasses, err := runPasses(jobs, o.seed, budget, func(j optJob) (optOutcome, error) { return runTraced(j, tr, reg) })
		if err != nil {
			return nil, err
		}
		passes = append(passes, tpasses...)
		layerMetrics(rep.metrics, tr, reg, traced, workers)
		rep.metrics.add("trace.overhead_frac", median(traced.passWalls)/median(base.passWalls)-1, "ratio")
		rep.note("deadline hits by width: numeric %v, finite %v", tr.numeric.hitsByWidth(), tr.finite.hitsByWidth())
		rep.note("accounting: span time %.3f s + opt.search_self_s = wall %.3f s x %d workers",
			tr.topLevelSeconds(), traced.wall.Seconds(), workers)
	} else {
		base.endToEnd(rep.metrics, setup)
	}
	for _, pass := range passes {
		for i, out := range pass {
			chk.check(jobs[i], out)
			if deterministic && out.out.WriteQASM() != passes[0][i].out.WriteQASM() {
				chk.fail(jobs[i].name + ": output differs between runs of the same input")
			}
		}
	}
	rep.attempted, rep.failed, rep.errs = chk.attempted, chk.failed, chk.errs
	rep.note("untraced passes: %d, walls %.3f s, %d iterations, cost %.0f -> %.0f",
		len(base.passWalls), base.passWalls, base.iters, base.inCost, base.outCost)
	return rep, nil
}

func serialSuite(o options) (*report, error) {
	maxIters := 600
	if o.tiny {
		maxIters = 40
	}
	var jobs []optJob
	setup, err := timeSetup(5, func() (err error) {
		jobs, err = suiteJobs(maxIters)
		return err
	})
	if err != nil {
		return nil, err
	}
	return optWorkload(o, jobs, setup, 1, false)
}

func hugeFixpoint(o options) (*report, error) {
	qubits, gates := 16, 12000
	if o.tiny {
		// The optimized circuit must still span more than 16 windows of
		// 256 gates in every round: with fewer, resynthesis is admitted and
		// its deadlines make the output timing-dependent.
		qubits, gates = 12, 8000
	}
	gs, err := gateset.ByName("ibm-eagle")
	if err != nil {
		return nil, err
	}
	var in *circuit.Circuit
	setup, err := timeSetup(5, func() (err error) {
		in, err = hugeCircuit(gs, qubits, gates, o.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	job := optJob{
		name:       fmt.Sprintf("huge-%dq-%dg", qubits, in.Len()),
		gs:         gs,
		in:         in,
		cost:       opt.TwoQubitCost(),
		opts:       guoq.Options{GateSet: gs.Name, Fixpoint: true, Parallelism: 2, Seed: hugeOptSeed},
		checkpoint: 6 * time.Second,
	}
	return optWorkload(o, []optJob{job}, setup, 2, true)
}
