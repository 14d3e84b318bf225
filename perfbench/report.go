package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// units names every metric the benchmark reports in BENCHMARK.json, end to
// end and per layer, with its unit. The self-test holds BENCHMARK.json to
// this table.
var units = map[string]string{
	// End to end (--trace 0).
	"setup_s":           "s",
	"us_per_event":      "us",
	"cpu_us_per_event":  "us",
	"heap_peak_mib":     "MiB",
	"deadline_accuracy": "frac",
	"error_job_dur":     "vtime",
	// Per layer (--trace 1).
	"spec.picks":                "count",
	"spec.ns_per_pick":          "ns",
	"spec.pick_share":           "frac",
	"spec.launch_yield":         "frac",
	"spec.spec_frac":            "frac",
	"sched.killed_frac":         "frac",
	"sched.self_share":          "frac",
	"sched.self_ns_per_event":   "ns",
	"sched.attempts_per_event":  "1/event",
	"sched.touches_per_attempt": "1/attempt",
	"trace.ns_per_job":          "ns",
	"traceio.ns_per_job":        "ns",
	"core.ns_per_policy":        "ns",
	"core.ns_per_record":        "ns",
	"shard.balance":             "x",
	"shard.merge_tail_s":        "s",
	"shard.parallel_eff":        "frac",
	"serve.submit_p50_us":       "us",
	"serve.submit_p99_us":       "us",
	"serve.gen_late_p99_ms":     "ms",
	"serve.queue_depth_max":     "count",
	"metrics.snapshot_us":       "us",
	"fault.crashes":             "count",
	"fault.lost_frac":           "frac",
	"trace_overhead_frac":       "frac",
}

// endToEnd lists the metrics a --trace 0 run prints; every other name in
// units is a per-layer metric of a --trace 1 run.
var endToEnd = []string{"setup_s", "us_per_event", "cpu_us_per_event",
	"heap_peak_mib", "deadline_accuracy", "error_job_dur"}

func perLayer() []string {
	isE2E := map[string]bool{}
	for _, n := range endToEnd {
		isE2E[n] = true
	}
	var names []string
	for n := range units {
		if !isE2E[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

type replaySample struct {
	Input  string  `json:"input"`
	Jobs   int     `json:"jobs"`
	Events uint64  `json:"events"`
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result record.
type report struct {
	Record    string  `json:"record"`
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     int     `json:"trace"`
	Seconds   float64 `json:"seconds"`
	Env       env     `json:"env"`
	Digest    string  `json:"sim_digest"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Replays   int     `json:"replays"`
	// ReplayLog lists every timed replay in run order.
	ReplayLog []replaySample         `json:"replay_log"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Extra holds metrics outside BENCHMARK.json: the per-job throughputs,
	// whose spread across seeds mostly reflects how large each seed's jobs
	// are; failed_frac, which is zero on a correct run; and the serve-only
	// lag metrics.
	Extra         map[string]metricValue `json:"extra"`
	Timings       map[string]timing      `json:"timings"`
	NotApplicable []string               `json:"not_applicable,omitempty"`
	SpansFile     string                 `json:"spans_file,omitempty"`
	Spans         int                    `json:"spans,omitempty"`
	SpansDropped  int                    `json:"spans_dropped,omitempty"`

	logs []*spanLog
}

func newReport(o options) *report {
	t := 0
	if o.trace {
		t = 1
	}
	return &report{
		Record: "perfbench", Workload: o.workload, Seed: o.seed, Trace: t, Seconds: o.seconds,
		Metrics: map[string]metricValue{}, Extra: map[string]metricValue{}, Timings: map[string]timing{},
	}
}

func (r *report) put(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	r.Metrics[name] = metricValue{v, u}
}

func (r *report) extra(name string, v float64, unit string) {
	r.Extra[name] = metricValue{v, unit}
}

func (r *report) timing(name string, xs []float64) { r.Timings[name] = summarize(xs) }

func (r *report) setup(samples []float64) {
	r.put("setup_s", median(samples))
	r.timing("setup_s", samples)
}

// putHost reports host cost: wall time per simulated event and per job
// over the throughput base, CPU time per event and per job over the CPU
// base. Per-event figures go to BENCHMARK.json; per-job ones also carry
// each seed's job sizes, so they stay in the record.
func (r *report) putHost(wall, cpu time.Duration, jobs int, events uint64, cpuJobs int, cpuEvents uint64) {
	r.put("us_per_event", float64(wall.Microseconds())/float64(events))
	r.put("cpu_us_per_event", float64(cpu.Microseconds())/float64(cpuEvents))
	r.extra("jobs_per_s", float64(jobs)/wall.Seconds(), "jobs/s")
	r.extra("cpu_us_per_job", float64(cpu.Microseconds())/float64(cpuJobs), "us")
}

// putQuality reports the paper's two axes: deadline-bound jobs' accuracy
// and error-bound (and exact) jobs' input-phase duration.
func (r *report) putQuality(q quality) {
	r.put("deadline_accuracy", ratio(q.accSum, float64(q.deadlineJobs)))
	r.put("error_job_dur", ratio(q.durSum, float64(q.errorJobs)))
}

// putLayerCommon reports the layer metrics every workload has. engineNS is
// the engines' busy wall time, childNS the part of it spent in calls the
// benchmark wrapped; the rest is the simulator's self time.
func (r *report) putLayerCommon(lt layerTotals, q quality, engineNS, childNS float64, events uint64) {
	launched := float64(q.launched)
	r.put("spec.picks", float64(lt.pickN))
	r.put("spec.ns_per_pick", ratio(float64(lt.pickNS), float64(lt.pickN)))
	r.put("spec.pick_share", ratio(float64(lt.pickNS), engineNS))
	r.put("spec.launch_yield", ratio(float64(lt.pickOK), float64(lt.pickN)))
	r.put("spec.spec_frac", ratio(float64(q.speculative), launched))
	r.put("sched.killed_frac", ratio(float64(q.killed), launched))
	r.put("sched.self_share", ratio(engineNS-childNS, engineNS))
	r.put("sched.self_ns_per_event", ratio(engineNS-childNS, float64(events)))
	r.put("fault.lost_frac", ratio(float64(q.lost), launched))
}

// finish fills the derived fields: metrics a workload cannot have are
// reported as 0 and listed as not applicable.
func (r *report) finish() error {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.extra("failed_frac", ratio(float64(r.Failed), float64(r.Attempted)), "frac")
	if r.Trace == 0 {
		for _, n := range endToEnd {
			if _, ok := r.Metrics[n]; !ok {
				return fmt.Errorf("perfbench: %s did not measure %s", r.Workload, n)
			}
		}
		return nil
	}
	for _, n := range perLayer() {
		if _, ok := r.Metrics[n]; !ok {
			r.put(n, 0)
			r.NotApplicable = append(r.NotApplicable, n)
		}
	}
	return nil
}

// contract is the last line of a run's output.
type contract struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes a readable table, the full record and, last, the contract
// line.
func (r *report) print(w io.Writer) error {
	names := endToEnd
	if r.Trace == 1 {
		names = perLayer()
	}
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%d replays=%d digest=%s correct=%v failed=%d/%d\n",
		r.Workload, r.Seed, r.Trace, r.Replays, r.Digest, r.Correct, r.Failed, r.Attempted)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	var extra []string
	for n := range r.Extra {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	for _, n := range extra {
		m := r.Extra[n]
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	rec, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(rec))
	out := contract{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, n := range names {
		out.Metrics[n] = r.Metrics[n]
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
