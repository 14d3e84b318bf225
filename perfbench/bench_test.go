package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/approx-analytics/grass/internal/spec"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// toy shrinks a workload to a few dozen jobs.
func toy(t *testing.T, name string) runner {
	switch w := workloads[name].(type) {
	case *batchSpec:
		c := *w
		c.units, c.jobs, c.warmJobs = 2, 24, 8
		return &c
	case *serveSpec:
		c := *w
		c.pacedJobs, c.flatJobs, c.warmJobs = 40, 30, 8
		c.pacedRate = 2000
		return &c
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// TestWorkloadsAtToySize runs every workload untraced and traced and holds
// the output to BENCHMARK.json: every named metric printed with its unit,
// a correct run, and the same sim digest with and without tracing.
func TestWorkloadsAtToySize(t *testing.T) {
	bench := readBenchmarkFile(t)
	var listed []string
	for _, w := range bench.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	if got, want := strings.Join(listed, " "), strings.Trim(workloadNames(), "[]"); got != want {
		t.Fatalf("BENCHMARK.json workloads %q, program has %q", got, want)
	}
	for _, name := range listed {
		t.Run(name, func(t *testing.T) {
			var digests [2]string
			for traceOn := 0; traceOn <= 1; traceOn++ {
				o := options{workload: name, seed: 7, seconds: 0.01, trace: traceOn == 1, workDir: t.TempDir()}
				rep, err := toy(t, name).run(o)
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.finish(); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := rep.print(&buf); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var keys map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
					t.Fatal(err)
				}
				if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
					t.Fatalf("last line has keys %v", keys)
				}
				var out contract
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("trace=%d: correct=%v failed=%d attempted=%d", traceOn, out.Correct, out.Failed, out.Attempted)
				}
				want := bench.EndToEnd
				if traceOn == 1 {
					want = bench.PerLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("trace=%d: %d metrics printed, BENCHMARK.json names %d", traceOn, len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					if !ok {
						t.Errorf("trace=%d: metric %s not printed", traceOn, m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("trace=%d: metric %s printed in %q, BENCHMARK.json says %q", traceOn, m.Name, got.Unit, m.Unit)
					}
				}
				digests[traceOn] = rep.Digest
			}
			if digests[0] != digests[1] {
				t.Errorf("traced digest %s differs from untraced %s", digests[1], digests[0])
			}
		})
	}
}

type fakePolicy struct{}

func (fakePolicy) Name() string { return "fake" }
func (fakePolicy) Pick(spec.Ctx, []spec.TaskView) (spec.Decision, bool) {
	return spec.Decision{}, false
}

type fakeInc struct{ fakePolicy }

func (fakeInc) PickIncremental(spec.Ctx, *spec.ViewSet) (spec.Decision, bool) {
	return spec.Decision{}, false
}

type fakeObs struct{ fakePolicy }

func (fakeObs) OnJobEnd(spec.Ctx, float64, float64) {}

type fakeProg struct{ fakePolicy }

func (fakeProg) OnTaskComplete(int, float64) {}

type fakeAll struct {
	fakeInc
	fakeObs
	fakeProg
}

func (fakeAll) Name() string { return "all" }
func (fakeAll) Pick(spec.Ctx, []spec.TaskView) (spec.Decision, bool) {
	return spec.Decision{}, false
}

// TestWrapPolicyKeepsInterfaces: the simulator picks its incremental path
// and its learner callbacks by type assertion, so a traced policy must
// implement exactly the optional interfaces of the policy it wraps.
func TestWrapPolicyKeepsInterfaces(t *testing.T) {
	ifaces := func(p spec.Policy) [3]bool {
		_, inc := p.(spec.IncrementalPolicy)
		_, obs := p.(spec.Observer)
		_, prog := p.(spec.ProgressObserver)
		return [3]bool{inc, obs, prog}
	}
	for _, p := range []spec.Policy{fakePolicy{}, fakeInc{}, fakeObs{}, fakeProg{}, fakeAll{}} {
		w := wrapPolicy(p, &engineTracer{}, 0)
		if got, want := ifaces(w), ifaces(p); got != want {
			t.Errorf("%T: wrapper implements %v, wrapped %v", p, got, want)
		}
	}
	for _, policy := range []string{"grass", "nospec", "late"} {
		f, err := newFactory(policy, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, want := f.(spec.SharedLearner)
		_, got := wrapFactory(f, &engineTracer{}).(spec.SharedLearner)
		if got != want {
			t.Errorf("%s: wrapped factory SharedLearner %v, factory %v", policy, got, want)
		}
	}
}
