package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/synth"
)

type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclaredMetrics checks that BENCHMARK.json and the program name the
// same workloads and metrics with the same units.
func TestDeclaredMetrics(t *testing.T) {
	b := readBenchFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, have map[string]string) {
		if len(declared) != len(have) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(declared), len(have))
		}
		for _, m := range declared {
			if u, ok := have[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s): program has unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndUnits)
	check("per_layer", b.PerLayer, perLayerUnits)
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that every declared metric is emitted and no output failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchFile(t)
	for _, w := range b.Workloads {
		for _, trace := range []int{0, 1} {
			want := b.EndToEnd
			if trace == 1 {
				want = b.PerLayer
			}
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.2",
					"--trace", strconv.Itoa(trace), "--tiny", "--workdir", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out output
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d\n%s", out.Correct, out.Attempted, out.Failed, stdout.String())
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, want %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s (%s) missing or with unit %q", m.Name, m.Unit, got.Unit)
					}
					if trace == 0 && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %g, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serial-suite", "--seconds", "0"},
		{"--workload", "serial-suite", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestWrappersKeepInterfaces checks that every traced transformation and
// synthesizer has exactly the optional interfaces of what it wraps.
func TestWrappersKeepInterfaces(t *testing.T) {
	tr := newTracer()
	for _, name := range []string{"ibm-eagle", "nam", "cliffordt", "ionq", "ibmq20"} {
		gs, err := gateset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		io := opt.InstantiateOptions{EpsilonF: 1e-8, MaxQubits: 3, WithPhaseFold: true}
		plain, err := opt.Instantiate(gs, io)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := tr.provider(gs, io)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != len(traced) {
			t.Fatalf("%s: %d transformations, traced %d", name, len(plain), len(traced))
		}
		for i := range plain {
			p, q := plain[i], traced[i]
			if p.Name() != q.Name() || p.Epsilon() != q.Epsilon() || p.Slow() != q.Slow() {
				t.Errorf("%s: transformation %d is %s, traced %s", name, i, p.Name(), q.Name())
			}
			if a, b := ifaces(p), ifaces(q); a != b {
				t.Errorf("%s %s: interfaces %v, traced %v", name, p.Name(), a, b)
			}
			r, ok := p.(*opt.ResynthTransformation)
			if !ok {
				continue
			}
			rs, ok := q.(interface{ unwrap() opt.Transformation }).unwrap().(*opt.ResynthTransformation)
			if !ok {
				t.Fatalf("%s: traced %s does not wrap a resynthesis transformation", name, q.Name())
			}
			_, pc := r.Synth.(synth.ContextSynthesizer)
			if _, qc := rs.Synth.(synth.ContextSynthesizer); pc != qc {
				t.Errorf("%s %s: ContextSynthesizer %v, traced %v", name, p.Name(), pc, qc)
			}
		}
	}
}

func ifaces(t opt.Transformation) [3]bool {
	_, e := t.(opt.EngineApplier)
	_, c := t.(opt.ContextApplier)
	_, ec := t.(opt.EngineContextApplier)
	return [3]bool{e, c, ec}
}
