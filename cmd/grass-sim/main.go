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
	"errors"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// newFlags declares the command's flags, bound straight into the run spec,
// on a fresh FlagSet that reports to stderr.
func newFlags(stderr io.Writer) (fs *flag.FlagSet, rs *exp.RunSpec, dag *int) {
	rs = new(exp.RunSpec)
	fs = flag.NewFlagSet("grass-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&rs.Policy, "policy", "grass", "speculation policy")
	fs.TextVar(&rs.Workload, "workload", trace.Facebook, "facebook | bing")
	fs.TextVar(&rs.Framework, "framework", trace.Hadoop, "hadoop | spark")
	fs.TextVar(&rs.Bound, "bound", trace.DeadlineBound, "deadline | error | exact | mixed")
	fs.IntVar(&rs.Jobs, "jobs", 200, "number of jobs")
	fs.Float64Var(&rs.Load, "load", 0.7, "offered load")
	dag = fs.Int("dag", 1, "DAG length (phases)")
	fs.Int64Var(&rs.Seed, "seed", 1, "random seed")
	fs.IntVar(&rs.Machines, "machines", 200, "cluster machines")
	fs.IntVar(&rs.SlotsPerMachine, "slots", 2, "slots per machine")
	return fs, rs, dag
}

// run parses args, writes the report to stdout and returns the exit
// status: 2 for a command-line error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs, rs, dag := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := simulate(*rs, *dag, stdout); err != nil {
		fmt.Fprintln(stderr, "grass-sim:", err)
		return 1
	}
	return 0
}

// simulate streams the spec's trace through the simulator (same results as
// materializing it, bounded memory) and writes the report to w.
func simulate(rs exp.RunSpec, dag int, w io.Writer) error {
	factory, err := rs.Factory(rs.Seed)
	if err != nil {
		return err
	}
	stats, err := rs.Simulate(factory, dag, nil)
	if err != nil {
		return err
	}
	report(w, rs, factory.Name(), stats)
	return nil
}

func report(w io.Writer, rs exp.RunSpec, policy string, stats *sched.RunStats) {
	fmt.Fprintf(w, "policy=%s workload=%s framework=%s bound=%v jobs=%d\n",
		policy, rs.Workload, rs.Framework, rs.Bound, len(stats.Results))
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
