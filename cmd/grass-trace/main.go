// Command grass-trace generates synthetic workloads and imports real
// cluster traces.
//
// With no subcommand it generates a synthetic workload and prints its
// Table-1-style summary plus a per-job listing (optionally as JSON for
// external tooling):
//
//	grass-trace -workload bing -framework spark -bound error -jobs 100
//	grass-trace -json > trace.json
//
// Subcommands operate on real trace files (internal/traceio — SWIM/Facebook
// workload files and Google cluster-data v2 task_events, plain or .gz),
// streaming with bounded memory however large the file:
//
//	grass-trace validate -format swim -in fb_trace.tsv
//	grass-trace stat     -format google -in task_events.csv.gz
//	grass-trace convert  -format swim -in fb_trace.tsv -out jobs.json
//
// validate decodes every record and reports the first malformed one with
// its file:line:column position; stat prints the Table-1-style summary of
// the imported jobs; convert writes the simulator's JSON job form (the
// same shape `grass-trace -json` emits) to -out or stdout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
	"github.com/approx-analytics/grass/internal/traceio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A command declares its flags on fs and returns the function that runs
// it once they are parsed.
type command func(fs *flag.FlagSet, stdout, stderr io.Writer) func() error

// run dispatches to a trace-import subcommand or to synthetic generation
// and returns the exit status: 2 for a command-line error, 1 for a failed
// run. Each subcommand has its own FlagSet, so import flags never collide
// with the synthetic generator's.
func run(args []string, stdout, stderr io.Writer) int {
	name, cmd := "grass-trace", command(synthetic)
	if len(args) > 0 && (args[0] == "convert" || args[0] == "validate" || args[0] == "stat") {
		name, cmd, args = name+" "+args[0], importer(args[0]), args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	exec := cmd(fs, stdout, stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := exec(); err != nil {
		fmt.Fprintln(stderr, "grass-trace:", err)
		return 1
	}
	return 0
}

// importer is one trace-import subcommand (convert/validate/stat), its
// flags bound straight into the record→job mapping options.
func importer(cmd string) command {
	return func(fs *flag.FlagSet, stdout, stderr io.Writer) func() error {
		var (
			f         traceio.Format
			formatSet bool
			o         = traceio.DefaultOptions()
		)
		// -format has no default: a missing format is an error, not swim.
		fs.Func("format", "trace file format: swim | google (required)", func(s string) error {
			formatSet = true
			return f.UnmarshalText([]byte(s))
		})
		in := fs.String("in", "", "input trace file, .gz transparently decompressed (required)")
		out := fs.String("out", "", "convert: output JSON file (default stdout)")
		fs.Float64Var(&o.BytesPerTask, "bytes-per-task", 128<<20, "input bytes per map task (the HDFS split size)")
		fs.Float64Var(&o.WorkScale, "work-scale", 10, "intrinsic work of one full task, simulation units")
		fs.Float64Var(&o.TimeScale, "time-scale", 0, "trace time units to simulation units (0 = format default: SWIM seconds 1:1, Google microseconds 1e-6)")
		fs.TextVar(&o.Bound, "bound", trace.MixedBound, "bound assignment for imported jobs: mixed | deadline | error | exact")
		fs.IntVar(&o.Slots, "slots", 400, "cluster slots used to calibrate assigned deadlines")
		fs.Int64Var(&o.Seed, "seed", 1, "bound-assignment seed")
		fs.IntVar(&o.MaxTasks, "max-tasks", 100_000, "reject records mapping to more tasks than this")
		return func() error {
			if fs.NArg() > 0 {
				return fmt.Errorf("%s: unexpected argument %q (all inputs are flags)", cmd, fs.Arg(0))
			}
			if *in == "" {
				return fmt.Errorf("%s: -in is required (the trace file to read)", cmd)
			}
			if !formatSet {
				return fmt.Errorf("%s: -format is required (swim | google)", cmd)
			}
			if _, err := os.Stat(*in); err != nil {
				return fmt.Errorf("%s: %w (give a readable trace file)", cmd, err)
			}
			if err := o.Validate(); err != nil {
				return err
			}
			return runImport(cmd, f, o, *in, *out, stdout, stderr)
		}
	}
}

// runImport executes one validated trace-import subcommand.
func runImport(cmd string, f traceio.Format, o traceio.Options, in, out string, stdout, stderr io.Writer) error {
	switch cmd {
	case "validate", "stat":
		st, err := traceio.Scan(nil, in, f, o)
		if err != nil {
			return err
		}
		if st.Jobs == 0 {
			return fmt.Errorf("%s: %s contains no jobs (empty or comment-only trace)", cmd, in)
		}
		if cmd == "validate" {
			fmt.Fprintf(stdout, "%s: OK: %d jobs, %d tasks\n", in, st.Jobs, st.Tasks)
			return nil
		}
		fmt.Fprintf(stdout, "format=%s jobs=%d tasks=%d meanTasks=%.1f span=%.1f totalWork=%.0f reduceJobs=%d\n",
			f, st.Jobs, st.Tasks, st.MeanTasks, st.Span, st.TotalWork, st.Phases)
		for i, bin := range task.AllBins {
			fmt.Fprintf(stdout, "  bin %-8s %d jobs\n", bin, st.Bins[i])
		}
		return nil
	case "convert":
		src, err := traceio.NewSource(nil, in, f, o)
		if err != nil {
			return err
		}
		defer src.Close()
		w := stdout
		if out != "" {
			file, err := os.Create(out)
			if err != nil {
				return err
			}
			defer file.Close()
			w = file
		}
		n, err := traceio.WriteJobsJSON(w, src)
		if err != nil {
			return err
		}
		if serr := src.Err(); serr != nil {
			return serr
		}
		if n == 0 {
			return fmt.Errorf("convert: %s contains no jobs (empty or comment-only trace)", in)
		}
		fmt.Fprintf(stderr, "converted %d jobs\n", n)
		return nil
	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}

// synthetic is synthetic generation, its flags bound straight into the
// trace configuration: the workload's summary and job listing, or the
// whole trace as JSON.
func synthetic(fs *flag.FlagSet, stdout, _ io.Writer) func() error {
	cfg := trace.DefaultConfig(trace.Facebook, trace.Hadoop, trace.DeadlineBound)
	fs.TextVar(&cfg.Workload, "workload", trace.Facebook, "facebook | bing")
	fs.TextVar(&cfg.Framework, "framework", trace.Hadoop, "hadoop | spark")
	fs.TextVar(&cfg.Bound, "bound", trace.DeadlineBound, "deadline | error | exact | mixed")
	fs.IntVar(&cfg.Jobs, "jobs", 100, "number of jobs")
	fs.IntVar(&cfg.Slots, "slots", 400, "cluster slots (calibration)")
	fs.Float64Var(&cfg.Load, "load", 1.0, "offered load")
	dag := fs.Int("dag", 1, "DAG length")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed")
	asJSON := fs.Bool("json", false, "emit the full trace as JSON")
	return func() error {
		if fs.NArg() > 0 {
			return fmt.Errorf("unknown subcommand %q (want convert | validate | stat, or flags only for synthetic generation)", fs.Arg(0))
		}
		if *dag > 1 {
			cfg.DAGLength = *dag
		}
		jl, err := trace.Generate(cfg)
		if err != nil {
			return err
		}
		if *asJSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(jl)
		}
		st := trace.Summarize(cfg, jl)
		fmt.Fprintf(stdout, "workload=%s framework=%s bound=%s jobs=%d tasks=%d meanTasks=%.1f span=%.1f\n",
			st.Workload, st.Framework, cfg.Bound, st.Jobs, st.TotalTasks, st.MeanTasks, st.Span)
		for _, bin := range task.AllBins {
			fmt.Fprintf(stdout, "  bin %-8s %d jobs\n", bin, st.BinCounts[bin])
		}
		fmt.Fprintf(stdout, "%-6s %10s %8s %6s %12s %10s\n", "job", "arrival", "tasks", "dag", "bound", "value")
		for i, j := range jl {
			if i >= 15 {
				fmt.Fprintf(stdout, "... (%d more)\n", len(jl)-15)
				break
			}
			val := j.Bound.Deadline
			if j.Bound.Kind == task.ErrorBound {
				val = j.Bound.Epsilon
			}
			fmt.Fprintf(stdout, "%-6d %10.2f %8d %6d %12s %10.3f\n",
				j.ID, j.Arrival, j.NumTasks(), j.DAGLength(), j.Bound.Kind, val)
		}
		return nil
	}
}
