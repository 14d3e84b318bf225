package main

// Outside-in tracing: every layer is timed at the calls the benchmark makes
// into its public functions, or at the interfaces the benchmark hands to the
// simulator (sources, policy factories, policies). Nothing inside the
// program is instrumented, so some costs cannot be split: the simulator's
// dispatch, view maintenance, event queue, cluster and estimator all stay
// together in sched's self time, and GRASS's learner queries stay inside
// the pick that asks them.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

// epoch anchors every span timestamp of one process.
var epoch = time.Now()

// now is the monotonic host clock in nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// Span names: one per layer boundary the benchmark times.
const (
	spanReplay    = "sched.replay"    // one RunSource / RunSharded / serve phase
	spanPartition = "shard.partition" // one partition of a sharded replay
	spanNext      = "source.next"     // trace.Stream.Next or traceio.Source.Next
	spanNewPolicy = "factory.new_policy"
	spanPick      = "policy.pick" // Pick or PickIncremental
	spanRecord    = "policy.record"
	spanSubmit    = "serve.submit"
	spanSnapshot  = "serve.snapshot"
	spanOnResult  = "serve.on_result"
)

// sampleEvery thins the spans of the hottest boundaries (picks and learner
// records fire several times per event); their counters stay exact.
const sampleEvery = 64

// maxSpans bounds one log's memory; later spans are counted but dropped.
const maxSpans = 200_000

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Job    int    `json:"job"`
}

// spanLog is written by exactly one goroutine.
type spanLog struct {
	spans   []span
	dropped int
}

var spanIDs atomic.Int64

func newSpanID() int64 { return spanIDs.Add(1) }

func (l *spanLog) add(parent int64, name string, start, end int64, job int) {
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{ID: newSpanID(), Parent: parent, Name: name, Start: start, End: end, Job: job})
}

// layerTotals accumulates exact totals at the boundaries one goroutine
// calls through. Each engine, and serve's submitting goroutine, owns its
// own; they are read only after that goroutine has finished.
type layerTotals struct {
	nextNS, nextN           int64
	newPolicyNS, newPolicyN int64
	pickNS, pickN, pickOK   int64
	recordNS, recordN       int64
	onResultNS, onResultN   int64
}

func (a layerTotals) plus(b layerTotals) layerTotals {
	return layerTotals{
		nextNS: a.nextNS + b.nextNS, nextN: a.nextN + b.nextN,
		newPolicyNS: a.newPolicyNS + b.newPolicyNS, newPolicyN: a.newPolicyN + b.newPolicyN,
		pickNS: a.pickNS + b.pickNS, pickN: a.pickN + b.pickN, pickOK: a.pickOK + b.pickOK,
		recordNS: a.recordNS + b.recordNS, recordN: a.recordN + b.recordN,
		onResultNS: a.onResultNS + b.onResultNS, onResultN: a.onResultN + b.onResultN,
	}
}

// engineTracer times the calls one simulator engine makes into the
// benchmark-supplied source, factory and policies. All of those run on the
// engine's goroutine, so the span log needs no lock.
type engineTracer struct {
	clock  layerTotals
	log    spanLog
	parent int64 // the replay or partition span the engine's calls belong to
	// partStart is when a sharded replay started building this partition.
	partStart int64
}

func (t *engineTracer) record(name string, start, end int64, job int, n int64) {
	if name == spanPick || name == spanRecord {
		if n%sampleEvery != 0 {
			return
		}
	}
	t.log.add(t.parent, name, start, end, job)
}

// tracedSource wraps an admission source. Both sources the benchmark uses
// (trace.Stream, traceio.Source) recycle jobs, so the wrapper forwards
// Release as well.
type tracedSource struct {
	src interface {
		sched.Source
		sched.Releaser
	}
	t *engineTracer
}

func (s *tracedSource) Next() (*task.Job, bool) {
	t0 := now()
	j, ok := s.src.Next()
	t1 := now()
	c := &s.t.clock
	c.nextNS += t1 - t0
	c.nextN++
	job := -1
	if ok {
		job = j.ID
	}
	s.t.record(spanNext, t0, t1, job, c.nextN)
	return j, ok
}

func (s *tracedSource) Release(j *task.Job) { s.src.Release(j) }

// tracedFactory wraps a policy factory; wrapFactory adds the SharedLearner
// methods exactly when the wrapped factory has them.
type tracedFactory struct {
	f spec.Factory
	t *engineTracer
}

func (f *tracedFactory) Name() string { return f.f.Name() }

func (f *tracedFactory) NewPolicy(jobID, numTasks int) spec.Policy {
	t0 := now()
	p := f.f.NewPolicy(jobID, numTasks)
	t1 := now()
	c := &f.t.clock
	c.newPolicyNS += t1 - t0
	c.newPolicyN++
	f.t.record(spanNewPolicy, t0, t1, jobID, c.newPolicyN)
	return wrapPolicy(p, f.t, jobID)
}

type sharedLearnerT struct{ f *tracedFactory }

func (s sharedLearnerT) ExportLearned() spec.LearnedState {
	return s.f.f.(spec.SharedLearner).ExportLearned()
}

func (s sharedLearnerT) SeedLearned(st spec.LearnedState) {
	s.f.f.(spec.SharedLearner).SeedLearned(st)
}

func wrapFactory(f spec.Factory, t *engineTracer) spec.Factory {
	w := &tracedFactory{f: f, t: t}
	if _, ok := f.(spec.SharedLearner); ok {
		return struct {
			*tracedFactory
			sharedLearnerT
		}{w, sharedLearnerT{w}}
	}
	return w
}

// tracedPolicy wraps one job's policy. The optional-interface method
// holders below reach the wrapped value through it; wrapPolicy composes
// exactly the set the wrapped policy implements, because the simulator
// selects its incremental path and its learner callbacks by type assertion.
type tracedPolicy struct {
	p   spec.Policy
	t   *engineTracer
	job int
}

func (w *tracedPolicy) Name() string { return w.p.Name() }

func (w *tracedPolicy) Pick(ctx spec.Ctx, tasks []spec.TaskView) (spec.Decision, bool) {
	t0 := now()
	d, ok := w.p.Pick(ctx, tasks)
	w.picked(t0, ok)
	return d, ok
}

func (w *tracedPolicy) picked(t0 int64, ok bool) {
	t1 := now()
	c := &w.t.clock
	c.pickNS += t1 - t0
	c.pickN++
	if ok {
		c.pickOK++
	}
	w.t.record(spanPick, t0, t1, w.job, c.pickN)
}

func (w *tracedPolicy) recorded(t0 int64) {
	t1 := now()
	c := &w.t.clock
	c.recordNS += t1 - t0
	c.recordN++
	w.t.record(spanRecord, t0, t1, w.job, c.recordN)
}

type incT struct{ w *tracedPolicy }

func (x incT) PickIncremental(ctx spec.Ctx, vs *spec.ViewSet) (spec.Decision, bool) {
	t0 := now()
	d, ok := x.w.p.(spec.IncrementalPolicy).PickIncremental(ctx, vs)
	x.w.picked(t0, ok)
	return d, ok
}

type obsT struct{ w *tracedPolicy }

func (x obsT) OnJobEnd(ctx spec.Ctx, acc, dur float64) {
	t0 := now()
	x.w.p.(spec.Observer).OnJobEnd(ctx, acc, dur)
	x.w.recorded(t0)
}

type progT struct{ w *tracedPolicy }

func (x progT) OnTaskComplete(completed int, t float64) {
	t0 := now()
	x.w.p.(spec.ProgressObserver).OnTaskComplete(completed, t)
	x.w.recorded(t0)
}

func wrapPolicy(p spec.Policy, t *engineTracer, job int) spec.Policy {
	w := &tracedPolicy{p: p, t: t, job: job}
	_, inc := p.(spec.IncrementalPolicy)
	_, obs := p.(spec.Observer)
	_, prog := p.(spec.ProgressObserver)
	i, o, g := incT{w}, obsT{w}, progT{w}
	switch {
	case inc && obs && prog:
		return struct {
			*tracedPolicy
			incT
			obsT
			progT
		}{w, i, o, g}
	case inc && obs:
		return struct {
			*tracedPolicy
			incT
			obsT
		}{w, i, o}
	case inc && prog:
		return struct {
			*tracedPolicy
			incT
			progT
		}{w, i, g}
	case obs && prog:
		return struct {
			*tracedPolicy
			obsT
			progT
		}{w, o, g}
	case inc:
		return struct {
			*tracedPolicy
			incT
		}{w, i}
	case obs:
		return struct {
			*tracedPolicy
			obsT
		}{w, o}
	case prog:
		return struct {
			*tracedPolicy
			progT
		}{w, g}
	default:
		return w
	}
}

// writeSpans writes every log's spans as JSON lines.
func writeSpans(path string, logs []*spanLog) (n, dropped int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, l := range logs {
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return n, dropped, err
			}
			n++
		}
		dropped += l.dropped
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return n, dropped, fmt.Errorf("write spans: %w", err)
	}
	return n, dropped, f.Close()
}
