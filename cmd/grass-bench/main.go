// Command grass-bench regenerates the paper's tables and figures, and runs
// trace-scale streaming replays:
//
//	grass-bench                    # every experiment at the quick size
//	grass-bench -full              # full size (EXPERIMENTS.md numbers)
//	grass-bench -fig fig5          # one experiment
//	grass-bench -list              # available experiment IDs
//	grass-bench -profile perf      # also write CPU/heap profiles
//	grass-bench -jobs 1000000      # streaming replay: a million mixed jobs
//	                               # in bounded memory, high-water reported
//	grass-bench -trace-file fb.tsv -trace-format swim -shards 4
//	                               # replay an imported real cluster trace
//	                               # (SWIM/Facebook or Google task_events,
//	                               # plain or .gz) through the same
//	                               # bounded-memory pipeline
//	grass-bench -jobs 1000000 -shards 4
//	                               # the same trace partitioned 4 ways and
//	                               # executed on 4 worker goroutines; the
//	                               # merge is deterministic, so the output
//	                               # is identical for any -shards at a
//	                               # fixed -partitions (README "Sharded
//	                               # execution")
//
// Output is plain-text tables with the same rows/series the paper plots.
// With -profile, CPU samples cover the runs and a heap profile is written
// at exit — `go tool pprof <dir>/perf.cpu.prof` then points at the
// simulator's hot path. Bare profile prefixes land in a fresh temp
// directory (printed on start) so repeated runs never litter the working
// tree; give a path containing a separator to choose the location.
//
// The -jobs replay streams the trace through the simulator: jobs are
// generated lazily in arrival order, recycled when they finish, and results
// fold into running aggregates — heap high-water stays flat as -jobs grows.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/exp"
	"github.com/approx-analytics/grass/internal/fault"
	"github.com/approx-analytics/grass/internal/trace"
	"github.com/approx-analytics/grass/internal/traceio"
)

// main delegates to run so deferred cleanup (profile finalization) executes
// on every exit path; os.Exit here would skip it.
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the parsed command line: the experiment switches, and the
// replay bound straight into its typed configuration.
type options struct {
	fig, profile string
	full, list   bool
	workers      int
	replay       exp.ReplayConfig
}

// newFlags declares the command's flags on a fresh FlagSet that reports
// to stderr.
func newFlags(stderr io.Writer) (*flag.FlagSet, *options) {
	o := &options{replay: exp.DefaultReplayConfig(0)}
	rc := &o.replay
	fs := flag.NewFlagSet("grass-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.fig, "fig", "", "run one experiment by ID (see -list)")
	fs.BoolVar(&o.full, "full", false, "full-size runs (slower; EXPERIMENTS.md numbers)")
	fs.BoolVar(&o.list, "list", false, "list experiment IDs")
	fs.IntVar(&o.workers, "workers", 0, "concurrent simulations per experiment (0 = all cores); results are identical for any value")
	fs.StringVar(&o.profile, "profile", "", "write <prefix>.cpu.prof and <prefix>.mem.prof covering the runs (bare prefixes go to a temp dir)")

	fs.IntVar(&rc.Jobs, "jobs", 0, "streaming replay: replay this many jobs instead of running experiments")
	fs.StringVar(&rc.Policy, "policy", "gs", "replay policy (see grass-sim for names)")
	fs.TextVar(&rc.Workload, "workload", trace.Facebook, "replay workload: facebook | bing")
	fs.TextVar(&rc.Bound, "bound", trace.MixedBound, "replay bound mode: mixed | deadline | error | exact")
	fs.Int64Var(&rc.Seed, "seed", 1, "replay seed")
	fs.StringVar(&rc.TraceFile, "trace-file", "", "streaming replay of an imported real cluster trace (SWIM or Google task_events, .gz ok) instead of a synthetic workload")
	fs.TextVar(&rc.TraceFormat, "trace-format", traceio.SWIM, "imported trace format: swim | google")
	fs.IntVar(&rc.Shards, "shards", 1, "replay worker goroutines executing partitions; with -partitions set explicitly this never changes results, but when -partitions is 0 it also sets the partition count, which IS model-visible")
	fs.IntVar(&rc.Partitions, "partitions", 0, "replay partition count — the sharded model: cluster and trace split with a deterministic merge; results are comparable only at equal partition counts (0 = same as -shards; 1 = the plain engine)")
	fs.TextVar(&rc.Learner, "learner", core.LearnerRing, "GRASS learner: ring (per-partition ring buffer) | sketch (mergeable sketch store — partition-invariant learning at -partitions > 1)")
	fs.IntVar(&rc.LearnEpochs, "learn-epochs", 1, "replay the trace this many times, carrying merged learned state into each next epoch (needs -learner sketch when > 1); stats report the final epoch")
	fs.StringVar(&rc.Scenario, "scenario", "", "replay fault scenario: "+strings.Join(fault.Scenarios(), " | ")+" (empty or none = benign cluster)")
	fs.Int64Var(&rc.FaultSeed, "fault-seed", 0, "pin the fault timeline independently of -seed (0 = derive it from -seed)")
	return fs, o
}

// The command's modes, named the way a refusal names them; exactly one
// runs per invocation (options.mode).
const (
	modeList        = "-list"
	modeExperiments = "the experiment tables"
	modeReplay      = "a synthetic streaming replay (-jobs)"
	modeImport      = "an imported-trace replay (-trace-file)"
)

var replayModes = []string{modeReplay, modeImport}

// flagModes lists the modes each flag applies to. A flag set outside them
// is refused: silently ignoring it would run something other than what
// was asked for.
var flagModes = map[string][]string{
	"list": {modeList}, "profile": {modeExperiments, modeReplay, modeImport},
	"fig": {modeExperiments}, "full": {modeExperiments}, "workers": {modeExperiments},
	"jobs": {modeReplay}, "workload": {modeReplay}, "bound": {modeReplay},
	"trace-file": {modeImport}, "trace-format": {modeImport},
	"policy": replayModes, "seed": replayModes, "shards": replayModes, "partitions": replayModes,
	"learner": replayModes, "learn-epochs": replayModes, "scenario": replayModes, "fault-seed": replayModes,
}

// mode picks the invocation's mode: -list, then an imported replay, then
// a synthetic one, else the experiment tables.
func (o *options) mode() string {
	switch {
	case o.list:
		return modeList
	case o.replay.TraceFile != "":
		return modeImport
	case o.replay.Jobs != 0:
		return modeReplay
	}
	return modeExperiments
}

// run parses args, runs the selected mode and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs, o := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	mode := o.mode()
	misplaced := ""
	fs.Visit(func(f *flag.Flag) {
		if misplaced == "" && !slices.Contains(flagModes[f.Name], mode) {
			misplaced = f.Name
		}
	})
	if misplaced != "" {
		fmt.Fprintf(stderr, "grass-bench: -%s does not apply to %s\n", misplaced, mode)
		return 1
	}
	if mode == modeList {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Desc)
		}
		return 0
	}
	if o.profile != "" {
		prefix, err := profilePrefix(o.profile)
		if err != nil {
			fmt.Fprintf(stderr, "grass-bench: %v\n", err)
			return 1
		}
		cpu, err := os.Create(prefix + ".cpu.prof")
		if err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			fmt.Fprintf(stderr, "grass-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "profiles: %s.cpu.prof, %s.mem.prof\n", prefix, prefix)
		// Finalize both profiles even when an experiment fails: a profile of
		// the run that errored is exactly what the debugging session needs.
		defer func() {
			pprof.StopCPUProfile()
			cpu.Close()
			mem, err := os.Create(prefix + ".mem.prof")
			if err == nil {
				runtime.GC() // materialize accurate live-heap stats
				err = pprof.WriteHeapProfile(mem)
				mem.Close()
			}
			if err != nil {
				fmt.Fprintf(stderr, "grass-bench: %v\n", err)
			}
		}()
	}
	if mode == modeExperiments {
		return runExperiments(o, stdout, stderr)
	}

	rc := o.replay
	if rc.Shards < 1 {
		fmt.Fprintf(stderr, "grass-bench: -shards %d: need at least one worker goroutine\n", rc.Shards)
		return 1
	}
	if mode == modeImport {
		if _, err := os.Stat(rc.TraceFile); err != nil {
			fmt.Fprintf(stderr, "grass-bench: -trace-file: %v (give a readable SWIM or Google task_events file, optionally .gz)\n", err)
			return 1
		}
	}
	rs, err := exp.Replay(rc)
	if err != nil {
		fmt.Fprintf(stderr, "grass-bench: replay: %v\n", err)
		return 1
	}
	rs.Render(stdout)
	return 0
}

// runExperiments renders every experiment, or the one -fig names.
func runExperiments(o *options, stdout, stderr io.Writer) int {
	cfg := exp.Quick()
	if o.full {
		cfg = exp.Default()
	}
	cfg.Workers = o.workers
	ran := 0
	for _, e := range exp.All() {
		if o.fig != "" && e.ID != o.fig {
			continue
		}
		ran++
		start := time.Now()
		t, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "grass-bench: %s: %v\n", e.ID, err)
			return 1
		}
		t.Render(stdout)
		fmt.Fprintf(stdout, "[%s took %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "grass-bench: unknown experiment %q (try -list)\n", o.fig)
		return 1
	}
	return 0
}

// profilePrefix resolves where profile files go: a prefix with a path
// separator is used as given; a bare prefix lands in a fresh temp directory
// so CI runs and repeated profiling sessions leave no stray files in the
// working tree.
func profilePrefix(p string) (string, error) {
	if strings.ContainsRune(p, os.PathSeparator) {
		return p, nil
	}
	dir, err := os.MkdirTemp("", "grass-bench-")
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, p), nil
}
