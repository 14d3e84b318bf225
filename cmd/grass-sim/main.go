// Command grass-sim runs one simulated trace under one speculation policy
// and prints per-bin and aggregate results. It is the quickest way to poke
// at the simulator:
//
//	grass-sim -policy grass -workload facebook -framework hadoop \
//	          -bound deadline -jobs 200 -seed 1
//
// Policies: grass, grass-strawman, grass-best1, grass-best2util,
// grass-best2acc, gs, ras, late, mantri, nospec, oracle.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/approx-analytics/grass/internal/exp"
	"github.com/approx-analytics/grass/internal/metrics"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "grass-sim:", err)
		os.Exit(1)
	}
}

// run parses the command line args and writes the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("grass-sim", flag.ExitOnError)
	var (
		policy    = fs.String("policy", "grass", "speculation policy")
		workload  = fs.String("workload", "facebook", "facebook | bing")
		framework = fs.String("framework", "hadoop", "hadoop | spark")
		bound     = fs.String("bound", "deadline", "deadline | error | exact | mixed")
		jobs      = fs.Int("jobs", 200, "number of jobs")
		load      = fs.Float64("load", 0.7, "offered load")
		dag       = fs.Int("dag", 1, "DAG length (phases)")
		seed      = fs.Int64("seed", 1, "random seed")
		machines  = fs.Int("machines", 200, "cluster machines")
		slotsPer  = fs.Int("slots", 2, "slots per machine")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with usage
	tc, err := traceConfig(*workload, *framework, *bound)
	if err != nil {
		return err
	}
	tc.Jobs = *jobs
	tc.Load = *load
	tc.Seed = *seed
	tc.Slots = *machines * *slotsPer
	if *dag > 1 {
		tc.DAGLength = *dag
	}
	stream, err := trace.NewStream(tc)
	if err != nil {
		return err
	}

	factory, oracleMode, err := exp.NewFactory(*policy, *seed)
	if err != nil {
		return err
	}
	scfg := exp.Config{Machines: *machines, SlotsPerMachine: *slotsPer}.
		SchedConfig(tc.Framework, *seed, oracleMode)
	sim, err := sched.New(scfg, factory)
	if err != nil {
		return err
	}
	// Stream the trace: same results as materializing it, bounded memory.
	stats, err := sim.RunSource(stream)
	if err != nil {
		return err
	}
	report(w, tc, factory.Name(), stats)
	return nil
}

func traceConfig(workload, framework, bound string) (trace.Config, error) {
	w, err := trace.ParseWorkload(workload)
	if err != nil {
		return trace.Config{}, err
	}
	f, err := trace.ParseFramework(framework)
	if err != nil {
		return trace.Config{}, err
	}
	b, err := trace.ParseBound(bound)
	if err != nil {
		return trace.Config{}, err
	}
	return trace.DefaultConfig(w, f, b), nil
}

func report(w io.Writer, tc trace.Config, policy string, stats *sched.RunStats) {
	fmt.Fprintf(w, "policy=%s workload=%s framework=%s bound=%v jobs=%d\n",
		policy, tc.Workload, tc.Framework, tc.Bound, len(stats.Results))
	fmt.Fprintf(w, "makespan=%.1f meanUtil=%.2f events=%d estimatorAcc=%.2f\n",
		stats.Makespan, stats.MeanUtilization, stats.Events, stats.EstimatorAccuracy)
	fmt.Fprintf(w, "%-8s %6s %10s %10s %8s %8s\n", "bin", "jobs", "accuracy", "duration", "spec", "killed")
	for _, b := range task.AllBins {
		rs := metrics.FilterBin(stats.Results, b)
		if len(rs) == 0 {
			continue
		}
		var spec, killed int
		for _, r := range rs {
			spec += r.Speculative
			killed += r.Killed
		}
		fmt.Fprintf(w, "%-8s %6d %10.3f %10.2f %8d %8d\n",
			b, len(rs), metrics.MeanAccuracy(rs), metrics.MeanInputDuration(rs), spec, killed)
	}
	fmt.Fprintf(w, "%-8s %6d %10.3f %10.2f\n", "all", len(stats.Results),
		metrics.MeanAccuracy(stats.Results), metrics.MeanInputDuration(stats.Results))
}
