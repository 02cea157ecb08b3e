// Command e2ebench is guoq's end-to-end benchmark. It runs one workload for
// a fixed time, checks every output, and prints a human-readable report
// followed by one JSON line with the workload's metrics:
//
//	bash e2ebench/run.sh --workload serial-suite --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//   - serial-suite: synchronous single-worker guoq.Start runs at a fixed
//     optimizer seed and MaxIters on five suite circuits (ibm-eagle
//     barenco_tof_5, qft_8 and adder_4; nam qft_8; cliffordt barenco_tof_5).
//     Resynthesis is ~99% of its wall time and both synthesizers run, so a
//     rewrite change should show no change here. Many 3-qubit numeric
//     syntheses fail at their 500 ms deadline, and whether a borderline call
//     makes it depends on timing: the fixed-iteration cost is therefore not
//     fully deterministic. The seed only orders the circuits within a pass.
//   - huge-fixpoint: suite families (adders, QFT, Toffolis, GF(2)
//     multipliers) laid over random, overlapping qubit slices of 16 qubits
//     up to 12k gates, optimized by guoq.Start with Fixpoint and two
//     workers to its own fixpoint. The tiling is fixed and the seed
//     relabels its qubits. The output is deterministic. With N windows of
//     256 gates the fixpoint grants each window ε/N; once N > 16 that is
//     below the finest resynthesis class (ε/16), so no resynthesis is ever
//     admitted and the rewrite, cleanup, fusion and phase-folding layers do
//     all the work. The register has 16 qubits, not 20, because the
//     internal/verify state-vector check of the output costs ~2.5 ms per
//     gate at 20 qubits, which no run could afford.
//   - guoqd-mix: a durable guoqd (dist.OpenServer on a data directory)
//     served on loopback to two closed-loop clients in this process. 60% of
//     client iterations resubmit a hot circuit whose result is cached; 40%
//     submit a fresh circuit (a miss) and publish its optimized form through
//     /v1/exchange (a WAL append and a cache fill). The fresh stream
//     outgrows the cache's entry bound during warm-up, so eviction and disk
//     spill are part of the measured steady state. All circuits derive from
//     the seed.
//
// With --trace 0 the JSON carries the end-to-end metrics, measured
// untraced. With --trace 1 the run is split in two halves, untraced and
// traced, and the JSON carries the per-layer metrics of the traced half
// plus trace.overhead_frac. See trace.go for what the tracer records.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// options is one benchmark invocation.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string
	// tiny shrinks every workload to a size a smoke test can afford.
	tiny bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is a workload's result: checked outputs and metrics, plus lines
// for the human-readable part of the output.
type report struct {
	attempted, failed int
	errs              []string
	metrics           metricSet
	notes             []string
}

func newReport() *report { return &report{metrics: metricSet{}} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*report, error){
	"serial-suite":  serialSuite,
	"huge-fixpoint": hugeFixpoint,
	"guoqd-mix":     guoqdMix,
}

// endToEndUnits and perLayerUnits are the metrics every run emits, by
// name; BENCHMARK.json lists the same names.
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"wall_s":            "s",
	"iter_us":           "us",
	"cost_ratio":        "ratio",
	"ttq_cost_ratio":    "ratio",
	"alloc_kb_per_iter": "KB",
}

var perLayerUnits = func() map[string]string {
	m := map[string]string{}
	for _, p := range []string{"synth.numeric_", "synth.finite_"} {
		for _, s := range []struct{ n, u string }{
			{"calls_2q", "count"}, {"calls_3q", "count"}, {"s_2q", "s"}, {"s_3q", "s"},
			{"p50_ms_3q", "ms"}, {"p90_ms_3q", "ms"}, {"ok_frac", "ratio"},
			{"deadline_hits", "count"}, {"deadline_s", "s"},
		} {
			m[p+s.n] = s.u
		}
	}
	for _, p := range []string{"rewrite.rule_", "rewrite.cleanup_", "rewrite.fuse_", "phasepoly.fold_"} {
		m[p+"calls"], m[p+"s"], m[p+"ok_frac"] = "count", "s", "ratio"
	}
	for n, u := range map[string]string{
		"opt.resynth_calls": "count", "opt.resynth_s": "s", "opt.resynth_ok_frac": "ratio",
		"opt.resynth_overhead_s": "s", "rewrite.cache_hit_frac": "ratio",
		"opt.cost_calls": "count", "opt.cost_s": "s", "opt.search_self_s": "s",
		"opt.accept_frac": "ratio", "popt.busy_frac": "ratio", "popt.windows": "count",
		"popt.adopted_frac": "ratio", "gc.cpu_frac": "ratio", "gc.cycles": "count",
		"dist.handler_ms_submit": "ms", "dist.handler_ms_exchange": "ms",
		"dist.transport_frac": "ratio", "dist.bytes_per_op": "B",
		"dist.cache_hit_frac": "ratio", "store.wal_bytes_per_op": "B",
		"store.spill_files": "count", "circuit.qasm_ms_per_op": "ms",
		"trace.overhead_frac": "ratio",
	} {
		m[n] = u
	}
	return m
}()

// output is the JSON line the benchmark ends with.
type output struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// finish restricts the report's metrics to the declared set for the mode:
// a declared metric the workload does not have reads 0 (per-layer only),
// and a metric that is not declared is a bug.
func finish(r *report, trace bool) (output, error) {
	want := endToEndUnits
	if trace {
		want = perLayerUnits
	}
	out := output{Attempted: r.attempted, Failed: r.failed, Correct: r.failed == 0 && r.attempted > 0, Metrics: metricSet{}}
	for name, m := range r.metrics {
		u, ok := want[name]
		if !ok || u != m.Unit {
			return out, fmt.Errorf("metric %s (%s) is not declared", name, m.Unit)
		}
		out.Metrics[name] = m
	}
	for name, u := range want {
		if _, ok := out.Metrics[name]; !ok {
			if !trace {
				return out, fmt.Errorf("end-to-end metric %s missing", name)
			}
			out.Metrics[name] = metric{Unit: u}
		}
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: serial-suite, huge-fixpoint or guoqd-mix")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 15, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workdir := fs.String("workdir", ".bench_build", "directory for the benchmark's scratch files")
	tiny := fs.Bool("tiny", false, "shrink the workload to smoke-test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, workdir: *workdir, tiny: *tiny}
	r, err := w(o)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	out, err := finish(r, o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %d: attempted %d, failed %d (failed_frac %.4f)\n",
		*workload, *seed, *trace, out.Attempted, out.Failed, frac(float64(out.Failed), float64(out.Attempted)))
	for _, e := range r.errs {
		fmt.Fprintf(stdout, "  failure: %s\n", e)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// timeSetup runs set-up n times and returns the median duration in
// seconds; the last run's state is the one the workload keeps.
func timeSetup(n int, f func() error) (float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}
