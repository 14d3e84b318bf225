// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed time, checks every job result, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics of a separately
// traced run). The last line of its output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload grass-fb --seed 1 --seconds 40 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/approx-analytics/grass/internal/trace"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// warmSeed generates the warm-up input each set-up ends with. It is fixed,
// not the run's seed, so set-up does the same work on every seed.
const warmSeed = 0

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
}

type runner interface {
	run(o options) (*report, error)
}

// workloads are chosen to separate the layers; README.md gives the reasons.
var workloads = map[string]runner{
	"grass-fb": &batchSpec{
		policy: "grass", workload: trace.Facebook,
		parts: 1, workers: 1, units: 5, jobs: 300, warmJobs: 40,
	},
	"nospec-bing-p4": &batchSpec{
		policy: "nospec", workload: trace.Bing,
		parts: 4, workers: 2, units: 4, jobs: 2500, warmJobs: 400,
	},
	"serve-swim-crashy": &serveSpec{
		policy: "late", scenario: "crashy",
		pacedJobs: 1100, flatJobs: 1200, warmJobs: 60,
		pacedRate: 80, meanGap: 18,
		lateLimit: 50 * time.Millisecond,
		pollEvery: 10 * time.Millisecond,
	},
}

func main() {
	var (
		o       options
		traceOn int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 40, "how long the timed phase runs")
	flag.IntVar(&traceOn, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for generated inputs and span files")
	flag.Parse()
	o.trace = traceOn == 1
	if err := runMain(o, traceOn); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(o options, traceOn int) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	if traceOn != 0 && traceOn != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", traceOn)
	}
	if !(o.seconds > 0) {
		return fmt.Errorf("--seconds %v must be positive", o.seconds)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	rep, err := w.run(o)
	if err != nil {
		return err
	}
	rep.Env = readEnv(".")
	if err := rep.finish(); err != nil {
		return err
	}
	if o.trace {
		path := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		n, dropped, err := writeSpans(path, rep.logs)
		if err != nil {
			return err
		}
		rep.SpansFile, rep.Spans, rep.SpansDropped = path, n, dropped
	}
	return rep.print(os.Stdout)
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// setupTimer times a workload's set-up setupReps times: once before the
// timed phase, then between its replays at even intervals of the time
// budget, so that a short slow spell of the host moves one sample rather
// than the median.
type setupTimer struct {
	do      func() error
	budget  time.Duration
	samples []float64
}

func (s *setupTimer) run() error {
	t0 := time.Now()
	if err := s.do(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	s.samples = append(s.samples, time.Since(t0).Seconds())
	return nil
}

// tick repeats the set-up if the next repeat is due, elapsed into the timed
// phase.
func (s *setupTimer) tick(elapsed time.Duration) error {
	if n := len(s.samples); n < setupReps && elapsed >= s.budget*time.Duration(n)/setupReps {
		return s.run()
	}
	return nil
}

// finish makes the repeats the timed phase left undone and returns every
// sample.
func (s *setupTimer) finish() ([]float64, error) {
	for len(s.samples) < setupReps {
		if err := s.run(); err != nil {
			return nil, err
		}
	}
	return s.samples, nil
}
