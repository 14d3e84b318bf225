// Command grass-serve runs the scheduler as a live service: an open-loop
// arrival driver feeds synthetic jobs into the speculation engine and the
// service reports what a production deployment is judged on — job-latency
// SLO quantiles (p50/p95/p99/p999), queue depth, and slot utilization —
// while it runs.
//
//	grass-serve -jobs 50000 -rate 2.5        # 50K jobs, Poisson arrivals
//	grass-serve -jobs 50000                  # trace-timed (byte-identical
//	                                         # to replaying the trace)
//	grass-serve -for 10s -rate 2.5           # wall-clock-bounded run
//	grass-serve -jobs 20000 -partitions 4    # partitioned service
//	grass-serve -wall-speed 100 -stats 1s    # paced in real time, live
//	                                         # stats every second
//
// The run is bounded by -jobs (virtual job count) and/or -for (wall
// clock); whichever trips first closes admission, and in-flight jobs
// drain. SIGINT (Ctrl-C) and SIGTERM shut down gracefully: the first
// signal closes admission and the in-flight jobs drain to a normal SLO
// summary — what an orchestrator's stop hook expects; a second signal
// cancels outright and exits nonzero without a summary.
//
// Virtual-time output is deterministic: for fixed -seed, -pace-seed and
// -partitions, every line of the final summary except wall-clock
// observations (wall time, max queue depth) is identical across runs and
// across -wall-speed settings. The final "SLO latency" line is
// machine-parseable; CI greps it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	grass "github.com/approx-analytics/grass"
	"github.com/approx-analytics/grass/internal/exp"
	"github.com/approx-analytics/grass/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the parsed command line, bound straight into the run spec
// (policy, trace, seed, fault preset) and the service configuration.
type options struct {
	spec  exp.RunSpec
	serve grass.ServeConfig
	stats time.Duration
}

// newFlags declares the command's flags on a fresh FlagSet that reports
// to stderr. The cluster is the paper's 200×2 on the Hadoop regime.
func newFlags(stderr io.Writer) (*flag.FlagSet, *options) {
	o := &options{spec: exp.RunSpec{Framework: trace.Hadoop, Machines: 200, SlotsPerMachine: 2}}
	rs, sc := &o.spec, &o.serve
	fs := flag.NewFlagSet("grass-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&rs.Jobs, "jobs", 50_000, "serve this many jobs then close admission (0 = unbounded, requires -for)")
	fs.StringVar(&rs.Policy, "policy", "gs", "speculation policy (see grass-sim for names)")
	fs.TextVar(&rs.Workload, "workload", trace.Facebook, "workload: facebook | bing")
	fs.TextVar(&rs.Bound, "bound", trace.MixedBound, "bound mode: mixed | deadline | error | exact")
	fs.Int64Var(&rs.Seed, "seed", 1, "simulator + trace seed")
	fs.IntVar(&sc.Partitions, "partitions", 1, "partition count — the sharded model; virtual-time output is deterministic per partition count")
	fs.Float64Var(&rs.Load, "load", 0.75, "offered load for trace-timed arrivals (ignored with -rate)")
	fs.Float64Var(&sc.Pace.Rate, "rate", 0, "Poisson arrival rate in jobs per virtual-time unit (0 = trace-timed arrivals); ~0.04 is 0.75 offered load for the default facebook/mixed workload on the 400-slot cluster")
	fs.Int64Var(&sc.Pace.Seed, "pace-seed", 1, "arrival-process seed (Poisson mode; independent of -seed)")
	fs.Float64Var(&sc.Pace.WallSpeed, "wall-speed", 0, "pace admission in real time at this many virtual-time units per second (0 = flat out)")
	fs.DurationVar(&sc.For, "for", 0, "close admission after this much wall-clock time (0 = unbounded)")
	fs.DurationVar(&o.stats, "stats", 0, "print a live stats line at this interval (0 = off)")
	fs.IntVar(&sc.QueueCap, "queue-cap", 0, "per-partition admission queue capacity (0 = default 1024)")
	fs.StringVar(&rs.Scenario, "scenario", "", "fault scenario: "+strings.Join(grass.FaultScenarios(), " | ")+" (empty or none = benign cluster)")
	fs.Int64Var(&rs.FaultSeed, "fault-seed", 0, "pin the fault timeline independently of -seed (0 = derive it from -seed)")
	return fs, o
}

// run parses args, serves until admission closes and the in-flight jobs
// drain, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs, o := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	rs, cfg := o.spec, o.serve
	if rs.Jobs < 0 {
		fmt.Fprintf(stderr, "grass-serve: -jobs %d: want a positive job count, or 0 with -for\n", rs.Jobs)
		return 1
	}
	if rs.Jobs == 0 && cfg.For <= 0 {
		fmt.Fprintln(stderr, "grass-serve: an unbounded run needs a bound: give -jobs, -for, or both")
		return 1
	}
	if cfg.Partitions < 1 {
		fmt.Fprintf(stderr, "grass-serve: -partitions %d: need at least one partition\n", cfg.Partitions)
		return 1
	}
	if cfg.Pace.Rate < 0 {
		fmt.Fprintf(stderr, "grass-serve: -rate %v: a Poisson rate must be positive (or 0 for trace-timed)\n", cfg.Pace.Rate)
		return 1
	}
	if cfg.Pace.WallSpeed < 0 {
		fmt.Fprintf(stderr, "grass-serve: -wall-speed %v: want virtual units per second >= 0\n", cfg.Pace.WallSpeed)
		return 1
	}
	if cfg.QueueCap < 0 {
		fmt.Fprintf(stderr, "grass-serve: -queue-cap %d: want a positive capacity (or 0 for the default)\n", cfg.QueueCap)
		return 1
	}

	var err error
	if cfg.Sim, err = rs.SchedConfig(); err != nil {
		fmt.Fprintf(stderr, "grass-serve: -scenario: %v\n", err)
		return 1
	}
	tc := rs.TraceConfig()
	if tc.Jobs == 0 {
		// Wall-clock-bounded run: give the generator effectively unlimited
		// jobs; -for closes admission long before the stream runs dry.
		tc.Jobs = math.MaxInt32
	}
	if cfg.Source, err = grass.StreamTrace(tc); err != nil {
		fmt.Fprintf(stderr, "grass-serve: %v\n", err)
		return 1
	}

	// Graceful shutdown: the FIRST SIGINT or SIGTERM closes admission —
	// queued jobs drain, in-flight work completes, and the final SLO
	// summary still prints (what an orchestrator's stop hook wants). A
	// SECOND signal cancels outright: the service stops promptly, pooled
	// state is abandoned consistently, and we exit nonzero with no summary.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	if cfg.Pace.Rate > 0 {
		cfg.Pace.Mode = grass.Poisson
	}
	cfg.Ctx, cfg.MaxJobs = ctx, rs.Jobs
	srv, err := grass.Serve(cfg, rs.Policy)
	if err != nil {
		fmt.Fprintf(stderr, "grass-serve: %v\n", err)
		return 1
	}
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(stderr, "grass-serve: %v: closing admission, draining in-flight jobs (signal again to abort)\n", s)
		srv.Close()
		if _, ok := <-sig; ok {
			cancel()
		}
	}()

	// The workload and bound print as their flag spellings.
	fmt.Fprintf(stdout, "serving %v/%v load under %q: partitions=%d pace=%s",
		fs.Lookup("workload").Value, fs.Lookup("bound").Value, rs.Policy, cfg.Partitions, cfg.Pace.Mode)
	if cfg.Pace.Rate > 0 {
		fmt.Fprintf(stdout, " rate=%g", cfg.Pace.Rate)
	}
	if rs.Jobs > 0 {
		fmt.Fprintf(stdout, " jobs=%d", rs.Jobs)
	}
	if cfg.For > 0 {
		fmt.Fprintf(stdout, " for=%v", cfg.For)
	}
	if cfg.Sim.Faults.Enabled() {
		fmt.Fprintf(stdout, " scenario=%s", rs.Scenario)
	}
	fmt.Fprintln(stdout)

	if o.stats > 0 {
		ticker := time.NewTicker(o.stats)
		defer ticker.Stop()
		done := make(chan struct{})
		defer close(done)
		start := time.Now()
		go func() {
			for {
				select {
				case <-done:
					return
				case <-ticker.C:
					s := srv.Snapshot()
					fmt.Fprintf(stdout, "t=%-8v submitted=%-8d done=%-8d depth=%-5d util=%.2f vtime=%.1f p50=%.2f p99=%.2f\n",
						time.Since(start).Round(time.Second), s.Submitted, s.Done, s.QueueDepth, s.Utilization, s.VirtualNow, s.P50, s.P99)
				}
			}
		}()
	}

	sum, err := srv.Wait()
	if err != nil {
		fmt.Fprintf(stderr, "grass-serve: %v\n", err)
		return 1
	}
	printSummary(stdout, sum)
	return 0
}

// printSummary renders the final report; the "SLO latency" line is the
// machine-parseable contract (CI greps and parses it).
func printSummary(w io.Writer, s *grass.ServeSummary) {
	fmt.Fprintf(w, "\nserved %d jobs over %d partition(s) in %v wall\n", s.Jobs, s.Partitions, s.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "  virtual makespan    %.2f\n", s.Makespan)
	fmt.Fprintf(w, "  events              %d\n", s.Events)
	fmt.Fprintf(w, "  mean utilization    %.3f\n", s.MeanUtilization)
	fmt.Fprintf(w, "  estimator accuracy  %.3f\n", s.EstimatorAccuracy)
	fmt.Fprintf(w, "  max queue depth     %d\n", s.MaxQueueDepth)
	fmt.Fprintf(w, "  latency mean/min/max  %.3f / %.3f / %.3f\n", s.MeanLatency, s.MinLatency, s.MaxLatency)
	fmt.Fprintf(w, "SLO latency p50=%.6g p95=%.6g p99=%.6g p999=%.6g\n", s.P50, s.P95, s.P99, s.P999)
}
