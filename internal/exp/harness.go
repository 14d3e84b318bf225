// Package exp contains one experiment runner per table and figure in the
// paper's evaluation (§2.3, §6, Appendix A). Each runner generates the
// appropriate synthetic workload, simulates it under the relevant policies
// with paired seeds, and reduces the results to the same rows or series the
// paper plots. The rendering is plain text tables; cmd/grass-bench and the
// root bench_test.go expose every runner.
package exp

import (
	"fmt"
	"io"
	"strings"

	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/fault"
	"github.com/approx-analytics/grass/internal/oracle"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

// Config sizes the experiments.
type Config struct {
	// Jobs is the trace length per run.
	Jobs int
	// Seeds are the paired-run seeds; reported numbers are medians across
	// seeds (§6.1 repeats each experiment and picks the median).
	Seeds []int64
	// Machines and SlotsPerMachine size the cluster (paper: 200 nodes).
	Machines, SlotsPerMachine int
	// DeadlineLoad is the offered load for deadline-bound traces. Deadline
	// jobs shed incomplete work at their deadline, so overload is stable
	// and reproduces the busy-cluster regime the paper studies.
	DeadlineLoad float64
	// ErrorLoad is the offered load for error-bound/exact traces, which
	// must complete their work and therefore need spare capacity.
	ErrorLoad float64
	// Workers bounds how many (policy, seed) simulations a runner executes
	// concurrently; 0 means one per available core. Every run seeds its own
	// dist.NewRNG tree, so results are byte-identical for any worker count.
	Workers int
}

// Default returns the full-size configuration used for EXPERIMENTS.md.
func Default() Config {
	return Config{
		Jobs:            250,
		Seeds:           []int64{1, 2, 3},
		Machines:        200,
		SlotsPerMachine: 2,
		DeadlineLoad:    2.0,
		ErrorLoad:       0.75,
	}
}

// Quick returns a reduced configuration for benchmarks and CI.
func Quick() Config {
	c := Default()
	c.Jobs = 150
	c.Seeds = []int64{1, 2}
	return c
}

// grassVariants tunes core.DefaultConfig into each GRASS policy name.
var grassVariants = map[string]func(*core.Config){
	"grass":           func(*core.Config) {},
	"grass-strawman":  func(c *core.Config) { c.Strawman = true },
	"grass-best1":     func(c *core.Config) { c.Factors = core.FactorSet{} },
	"grass-best2util": func(c *core.Config) { c.Factors = core.FactorSet{Utilization: true} },
	"grass-best2acc":  func(c *core.Config) { c.Factors = core.FactorSet{Accuracy: true} },
}

// NewFactory resolves a policy name to its factory — the one resolver
// behind every entry point. learner selects the GRASS learner (the
// per-partition ring store, or the sketch store whose state folds across
// partitions); other policies ignore it. The oracle's factory asks for
// ground-truth views itself (spec.GroundTruthFactory).
// Names: grass, grass-strawman, grass-best1, grass-best2util,
// grass-best2acc, gs, ras, late, mantri, nospec, oracle.
func NewFactory(name string, seed int64, learner core.LearnerKind) (spec.Factory, error) {
	if learner > core.LearnerSketch {
		return nil, fmt.Errorf("exp: unknown learner %v", learner)
	}
	key := strings.ToLower(name)
	if tune, ok := grassVariants[key]; ok {
		c := core.DefaultConfig()
		tune(&c)
		c.Seed, c.Learner = seed, learner
		return core.New(c)
	}
	switch key {
	case "gs":
		return spec.Stateless(spec.NewGS()), nil
	case "ras":
		return spec.Stateless(spec.NewRAS()), nil
	case "late":
		return spec.Stateless(spec.NewLATE()), nil
	case "mantri":
		return spec.Stateless(spec.NewMantri()), nil
	case "nospec":
		return spec.Stateless(spec.NoSpec{}), nil
	case "oracle":
		return oracle.New(), nil
	}
	return nil, fmt.Errorf("exp: unknown policy %q", name)
}

// RunSpec is one simulation run's typed description, and the one place it
// resolves into a simulator configuration, a trace configuration and a
// per-seed policy factory, so every entry point pairs them the same way.
type RunSpec struct {
	// Policy names the speculation policy (NewFactory's set); Learner the
	// GRASS learner, which non-GRASS policies ignore.
	Policy  string
	Learner core.LearnerKind
	// Workload, Framework and Bound select the synthetic trace; Framework
	// also selects the estimator-noise regime. Jobs is the trace length,
	// Load the offered load.
	Workload  trace.Workload
	Framework trace.Framework
	Bound     trace.BoundMode
	Jobs      int
	Load      float64
	// Machines and SlotsPerMachine size the cluster; Seed drives the trace
	// and the simulator.
	Machines, SlotsPerMachine int
	Seed                      int64
	// Scenario names a fault preset (fault.Scenarios; "" and "none" are a
	// benign cluster, byte-identical to a build without fault support).
	// FaultSeed, when non-zero, pins the fault timeline independently of
	// Seed; 0 derives it from Seed.
	Scenario  string
	FaultSeed int64
}

// SchedConfig builds the simulator configuration: cluster size, seed,
// fault schedule and the framework's estimator noise. Spark's much shorter
// tasks make them "more sensitive to estimation errors" (§6.3.2),
// modelled as extra estimator noise.
func (r RunSpec) SchedConfig() (sched.Config, error) {
	s := sched.DefaultConfig()
	s.Cluster.Machines = r.Machines
	s.Cluster.SlotsPerMachine = r.SlotsPerMachine
	s.Seed = r.Seed
	if r.Framework == trace.Spark {
		s.Estimator.TRemNoise = 0.5
		s.Estimator.TNewNoise = 0.25
	}
	fc, err := fault.Scenario(r.Scenario)
	if err != nil {
		return s, err
	}
	if r.FaultSeed != 0 {
		fc.Seed = r.FaultSeed
	}
	s.Faults = fc
	return s, nil
}

// TraceConfig builds the synthetic workload configuration.
func (r RunSpec) TraceConfig() trace.Config {
	tc := trace.DefaultConfig(r.Workload, r.Framework, r.Bound)
	tc.Jobs = r.Jobs
	tc.Seed = r.Seed
	tc.Slots = r.Machines * r.SlotsPerMachine
	tc.Load = r.Load
	return tc
}

// Factory builds the policy factory for one seed: the run's own, or a
// partition's under sharded execution.
func (r RunSpec) Factory(seed int64) (spec.Factory, error) {
	return NewFactory(r.Policy, seed, r.Learner)
}

// Simulate streams the spec's synthetic trace (DAGLength dagLen when above
// 1) through one simulator running factory — the one cell runner behind
// the experiment grids and cmd/grass-sim. mutate, when set, adjusts the
// simulator configuration (the ablations' model variants). Streaming
// gives the materialized trace's results without holding it.
func (r RunSpec) Simulate(factory spec.Factory, dagLen int, mutate func(*sched.Config)) (*sched.RunStats, error) {
	tc := r.TraceConfig()
	if dagLen > 1 {
		tc.DAGLength = dagLen
	}
	stream, err := trace.NewStream(tc)
	if err != nil {
		return nil, err
	}
	scfg, err := r.SchedConfig()
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(&scfg)
	}
	sim, err := sched.New(scfg, factory)
	if err != nil {
		return nil, err
	}
	return sim.RunSource(stream)
}

// cell is the run spec of one experiment-grid cell: the config's trace
// length and cluster, at the bound's offered load.
func (c Config) cell(w trace.Workload, fw trace.Framework, b trace.BoundMode, seed int64) RunSpec {
	load := c.ErrorLoad
	if b == trace.DeadlineBound {
		load = c.DeadlineLoad
	}
	return RunSpec{
		Workload: w, Framework: fw, Bound: b,
		Jobs: c.Jobs, Load: load,
		Machines: c.Machines, SlotsPerMachine: c.SlotsPerMachine,
		Seed: seed,
	}
}

// Run simulates one (workload, framework, bound, policy, seed) cell and
// returns its results.
func (c Config) Run(w trace.Workload, fw trace.Framework, b trace.BoundMode, policy string, seed int64, dagLen int) ([]sched.JobResult, error) {
	c.Seeds = []int64{seed}
	rs, err := c.runScenario(w, fw, b, dagLen, []policySpec{named(policy)}, nil)
	if err != nil {
		return nil, err
	}
	return rs[policy][0], nil
}

// Improvement runs base and treat policies over the config's seeds on
// identical traces and returns the median improvement percentage computed by
// metric on each paired run, optionally restricted by filter. The paired
// simulations fan out over the config's worker pool; results land in
// per-run slots so the median is identical for any worker count.
func (c Config) Improvement(w trace.Workload, fw trace.Framework, b trace.BoundMode,
	base, treat string, dagLen int,
	filter func(sched.JobResult) bool,
	metric func(base, treat []sched.JobResult) float64) (float64, error) {

	rs, err := c.runScenario(w, fw, b, dagLen, []policySpec{named(base), named(treat)}, nil)
	if err != nil {
		return 0, err
	}
	return rs.improvement(base, treat, metric, filter), nil
}

func filterResults(rs []sched.JobResult, keep func(sched.JobResult) bool) []sched.JobResult {
	out := rs[:0:0]
	for _, r := range rs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// binFilter keeps one job-size bin.
func binFilter(b task.SizeBin) func(sched.JobResult) bool {
	return func(r sched.JobResult) bool { return r.Bin == b }
}

// Table is a rendered experiment result: the rows/series a paper figure
// plots.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Row is one labelled line of a Table.
type Row struct {
	Label  string
	Values []float64
}

// AddRow appends a row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s\n", t.Title)
	width := 14
	fmt.Fprintf(w, "%-20s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%*s", width, c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-20s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(w, "%*.2f", width, v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}
