package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/serve"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/traceio"
)

// serveSpec is the live-service workload: jobs decoded from a SWIM file
// are submitted open-loop to a one-partition serve.Server by a single
// benchmark goroutine, first paced at a fixed offered rate (the lag
// phase), then flat out (the throughput phase). The flat-out phase
// repeats while time remains; every repeat must reproduce its first run.
type serveSpec struct {
	policy, scenario string
	pacedJobs        int
	flatJobs         int
	warmJobs         int
	// pacedRate is the paced phase's offered load in jobs per host second;
	// meanGap the mean virtual-time gap between the SWIM file's
	// submissions. Together they fix the wall speed of the pacing schedule.
	pacedRate, meanGap float64
	// lateLimit is the lag beyond which a paced job counts as late.
	lateLimit time.Duration
	// pollEvery is the interval at which a second goroutine reads
	// Server.Snapshot, as a monitoring client would.
	pollEvery time.Duration
}

// serveInput is what set-up leaves for the timed phases.
type serveInput struct {
	path string
	opts traceio.Options
	seed int64
}

// writeSWIM writes n SWIM records drawn from seed: sizes follow the
// Facebook bin mix (48% 5–50, 36% 51–500, 16% 501–3000 tasks of 128 MiB,
// log-uniform within a bin), stratified in blocks of 25 jobs so every seed
// carries the same mix; 60% of jobs shuffle 10–50% of their input into a
// reduce phase; submissions are a Poisson process with the given mean gap.
func writeSWIM(path string, seed int64, n int, meanGap float64) error {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5357494d))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# job_id\tsubmit_s\tgap_s\tmap_input_bytes\tshuffle_bytes\toutput_bytes")
	const split = 128 << 20
	block := make([]int, 0, 25)
	at := 0.0
	for i := 0; i < n; i++ {
		if len(block) == 0 {
			for b, c := range [3]int{12, 9, 4} {
				for k := 0; k < c; k++ {
					block = append(block, b)
				}
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		bin := block[len(block)-1]
		block = block[:len(block)-1]
		lo, hi := [3]float64{5, 51, 501}[bin], [3]float64{50, 500, 3000}[bin]
		tasks := math.Floor(math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi+1)-math.Log(lo))))
		mapBytes := (tasks - rng.Float64()) * split
		shuffle, output := 0.0, 0.0
		if rng.Float64() < 0.6 {
			shuffle = mapBytes * (0.1 + 0.4*rng.Float64())
			output = shuffle * (0.2 + 0.8*rng.Float64())
		}
		gap := rng.ExpFloat64() * meanGap
		fmt.Fprintf(w, "job%06d\t%.3f\t%.3f\t%.0f\t%.0f\t%.0f\n", i, at, gap, mapBytes, shuffle, output)
		at += gap
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (sv *serveSpec) setup(o options) (*serveInput, error) {
	n := sv.pacedJobs + sv.flatJobs
	in := &serveInput{
		path: filepath.Join(o.workDir, fmt.Sprintf("swim-%s-seed%d.tsv", o.workload, o.seed)),
		opts: traceio.DefaultOptions(),
		seed: o.seed,
	}
	in.opts.Seed = o.seed
	if err := writeSWIM(in.path, o.seed, n, sv.meanGap); err != nil {
		return nil, err
	}
	scan, err := traceio.Scan(nil, in.path, traceio.SWIM, in.opts)
	if err != nil {
		return nil, err
	}
	if scan.Jobs != n {
		return nil, fmt.Errorf("perfbench: %s decodes to %d jobs, want %d", in.path, scan.Jobs, n)
	}
	// The warm-up replays a short file of its own, drawn from warmSeed.
	warm := &serveInput{
		path: filepath.Join(o.workDir, fmt.Sprintf("swim-%s-warm.tsv", o.workload)),
		opts: traceio.DefaultOptions(),
		seed: warmSeed,
	}
	warm.opts.Seed = warmSeed
	if err := writeSWIM(warm.path, warmSeed, sv.warmJobs, sv.meanGap); err != nil {
		return nil, err
	}
	if _, err := sv.flatPhase(warm, 0, sv.warmJobs, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return in, nil
}

// phaseRun is one server's lifetime: a paced or a flat-out phase.
type phaseRun struct {
	out        replayOutcome
	wall       time.Duration
	events     uint64
	maxDepth   int64
	lags       []float64 // ms, paced jobs completing inside the paced window
	genLate    []float64 // ms the generator called Submit after the job was due
	submitUS   []float64
	snapshotUS []float64
	engine     layerTotals
	submitter  layerTotals
	logs       []*spanLog
}

// poller reads Server.Snapshot at a fixed interval until stopped.
type poller struct {
	stop chan struct{}
	wg   sync.WaitGroup
	durs []float64 // µs per Snapshot call
	log  spanLog
}

func startPoller(srv *serve.Server, every time.Duration, parent int64, traced bool) *poller {
	p := &poller{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				t0 := now()
				srv.Snapshot()
				t1 := now()
				p.durs = append(p.durs, float64(t1-t0)/1e3)
				if traced {
					p.log.add(parent, spanSnapshot, t0, t1, -1)
				}
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

func (p *poller) finish() {
	close(p.stop)
	p.wg.Wait()
}

// server starts a one-partition service whose results go to onResult.
func (sv *serveSpec) server(in *serveInput, n int, eng *engineTracer, onResult func(sched.JobResult)) (*serve.Server, error) {
	cfg, err := simConfig(in.seed, n, sv.scenario)
	if err != nil {
		return nil, err
	}
	handle := func(_ int, r sched.JobResult) { onResult(r) }
	if eng != nil {
		handle = func(_ int, r sched.JobResult) {
			t0 := now()
			onResult(r)
			t1 := now()
			eng.clock.onResultNS += t1 - t0
			eng.clock.onResultN++
			eng.log.add(eng.parent, spanOnResult, t0, t1, r.JobID)
		}
	}
	return serve.New(serve.Config{
		Sim: cfg,
		NewFactory: func(seed int64) (spec.Factory, error) {
			f, err := newFactory(sv.policy, seed)
			if err != nil || eng == nil {
				return f, err
			}
			return wrapFactory(f, eng), nil
		},
		Partitions: 1,
		OnResult:   handle,
	})
}

// phaseTracers returns the engine- and submitter-side tracers of a traced
// phase (nil, nil untraced).
func phaseTracers(traced bool, parent int64) (eng, sub *engineTracer) {
	if !traced {
		return nil, nil
	}
	return &engineTracer{parent: parent}, &engineTracer{parent: parent}
}

// submitAll feeds jobs from src to srv. due, when set, paces each job: it
// returns the host time the job is due and the submitter sleeps until then.
func submitAll(srv *serve.Server, src sched.Source, n int, sub *engineTracer, pr *phaseRun, due func(k int, arrival float64) int64) (accepted int, arrivals []float64) {
	ctx := context.Background()
	arrivals = make([]float64, 0, n)
	for k := 0; k < n; k++ {
		j, ok := src.Next()
		if !ok {
			break
		}
		arrivals = append(arrivals, j.Arrival)
		if due != nil {
			d := due(k, j.Arrival)
			if wait := d - now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			pr.genLate = append(pr.genLate, float64(now()-d)/1e6)
		}
		t0 := now()
		err := srv.Submit(ctx, j)
		t1 := now()
		if err == nil {
			accepted++
		}
		if sub != nil {
			pr.submitUS = append(pr.submitUS, float64(t1-t0)/1e3)
			sub.log.add(sub.parent, spanSubmit, t0, t1, j.ID)
		}
	}
	return accepted, arrivals
}

// finishPhase closes admission, waits for the engine and checks outputs.
func (sv *serveSpec) finishPhase(srv *serve.Server, pl *poller, col *collector, accepted int, pr *phaseRun, eng, sub *engineTracer) error {
	srv.Close()
	sum, err := srv.Wait()
	pl.finish()
	if err != nil {
		return err
	}
	// A refused or undecoded job has no result, so finish counts it as
	// missing; the server must also report exactly the jobs it accepted.
	pr.out = col.finish()
	if d := int(sum.Jobs) - accepted; d != 0 {
		pr.out.failed += max(d, -d)
	}
	pr.events = sum.Events
	pr.maxDepth = sum.MaxQueueDepth
	pr.snapshotUS = pl.durs
	if eng != nil {
		pr.engine = eng.clock
		pr.submitter = sub.clock
		pr.logs = []*spanLog{&eng.log, &sub.log, &pl.log}
	}
	return nil
}

// firstN passes on at most n jobs of src.
type firstN struct {
	src sched.Source
	n   int
}

func (f *firstN) Next() (*task.Job, bool) {
	if f.n == 0 {
		return nil, false
	}
	f.n--
	return f.src.Next()
}

// offlineReplay replays the jobs a phase submitted (the n after the first
// skip of the file) through the path each serve partition runs, sched.New
// and RunSource with the partition's config and factory seed. Arrival
// gating gives it the server's virtual timeline, so it must reproduce the
// phase's digest; its RunStats carry the fault counts serve.Summary lacks.
func (sv *serveSpec) offlineReplay(in *serveInput, skip, n int) (replayOutcome, sched.FaultStats, error) {
	var none sched.FaultStats
	cfg, err := simConfig(in.seed, n, sv.scenario)
	if err != nil {
		return replayOutcome{}, none, err
	}
	f, err := newFactory(sv.policy, sched.ShardSeed(cfg.Seed, 0, 1))
	if err != nil {
		return replayOutcome{}, none, err
	}
	sim, err := sched.New(sched.ShardConfig(cfg, 0, 1), f)
	if err != nil {
		return replayOutcome{}, none, err
	}
	src, err := traceio.NewSource(nil, in.path, traceio.SWIM, in.opts)
	if err != nil {
		return replayOutcome{}, none, err
	}
	defer src.Close()
	for k := 0; k < skip; k++ {
		if _, ok := src.Next(); !ok {
			return replayOutcome{}, none, fmt.Errorf("perfbench: %s ends before job %d: %v", in.path, k, src.Err())
		}
	}
	col := newCollector(skip, n)
	sim.OnResult(col.add)
	st, err := sim.RunSource(&firstN{src: src, n: n})
	if err != nil {
		return replayOutcome{}, none, err
	}
	return col.finish(), st.Faults, nil
}

// pacedPhase submits the first pacedJobs jobs at their due host times:
// job k is due (arrival_k − arrival_0) / speed seconds after the phase
// starts, speed = pacedRate × meanGap virtual units per host second.
func (sv *serveSpec) pacedPhase(in *serveInput, traced bool) (*phaseRun, error) {
	n := sv.pacedJobs
	pr := &phaseRun{}
	phaseID := newSpanID()
	eng, sub := phaseTracers(traced, phaseID)
	col := newCollector(0, n)
	delivered := make([]int64, n)
	srv, err := sv.server(in, n, eng, func(r sched.JobResult) {
		if r.JobID >= 0 && r.JobID < n {
			delivered[r.JobID] = now()
		}
		col.add(r)
	})
	if err != nil {
		return nil, err
	}
	src, err := traceio.NewSource(nil, in.path, traceio.SWIM, in.opts)
	if err != nil {
		srv.Close()
		srv.Wait()
		return nil, err
	}
	defer src.Close()
	var next sched.Source = src
	if traced {
		next = &tracedSource{src: src, t: sub}
	}
	pl := startPoller(srv, sv.pollEvery, phaseID, traced)
	speed := sv.pacedRate * sv.meanGap
	t0 := now()
	var a0 float64
	due := func(k int, arrival float64) int64 {
		if k == 0 {
			a0 = arrival
		}
		return t0 + int64((arrival-a0)/speed*1e9)
	}
	accepted, arr := submitAll(srv, next, n, sub, pr, due)
	if err := sv.finishPhase(srv, pl, col, accepted, pr, eng, sub); err != nil {
		return nil, err
	}
	pr.wall = time.Duration(now() - t0)
	if len(arr) == 0 {
		return pr, nil
	}
	// Lag: delivery minus the host time the pacing schedule reached the
	// job's virtual completion. Completions after the last paced arrival
	// are released by Close, not by the schedule, and are left out.
	last := arr[len(arr)-1]
	for k := range arr {
		if !col.seen[k] {
			continue
		}
		v := arr[k] + col.res[k].Duration
		if v > last {
			continue
		}
		scheduled := t0 + int64((v-a0)/speed*1e9)
		pr.lags = append(pr.lags, float64(delivered[k]-scheduled)/1e6)
	}
	if traced {
		pr.logs = append(pr.logs, &spanLog{spans: []span{{ID: phaseID, Name: spanReplay, Start: t0, End: now(), Job: -1}}})
	}
	return pr, nil
}

// flatPhase skips the first `skip` jobs of the file, then submits the next
// n as fast as admission accepts them.
func (sv *serveSpec) flatPhase(in *serveInput, skip, n int, traced bool) (*phaseRun, error) {
	pr := &phaseRun{}
	phaseID := newSpanID()
	eng, sub := phaseTracers(traced, phaseID)
	src, err := traceio.NewSource(nil, in.path, traceio.SWIM, in.opts)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	for k := 0; k < skip; k++ {
		if _, ok := src.Next(); !ok {
			return nil, fmt.Errorf("perfbench: %s ends before job %d: %v", in.path, k, src.Err())
		}
	}
	col := newCollector(skip, n)
	srv, err := sv.server(in, n, eng, col.add)
	if err != nil {
		return nil, err
	}
	var next sched.Source = src
	if traced {
		next = &tracedSource{src: src, t: sub}
	}
	pl := startPoller(srv, sv.pollEvery, phaseID, traced)
	t0 := now()
	accepted, _ := submitAll(srv, next, n, sub, pr, nil)
	if err := sv.finishPhase(srv, pl, col, accepted, pr, eng, sub); err != nil {
		return nil, err
	}
	t1 := now()
	pr.wall = time.Duration(t1 - t0)
	if traced {
		pr.logs = append(pr.logs, &spanLog{spans: []span{{ID: phaseID, Name: spanReplay, Start: t0, End: t1, Job: -1}}})
	}
	return pr, nil
}

// run performs one benchmark run of the serve workload.
func (sv *serveSpec) run(o options) (*report, error) {
	rep := newReport(o)
	budget := time.Duration(o.seconds * float64(time.Second))
	// Every set-up rewrites the same SWIM file, byte for byte; none runs
	// while a phase reads it.
	var in *serveInput
	setup := &setupTimer{budget: budget, do: func() (err error) {
		in, err = sv.setup(o)
		return err
	}}
	if err := setup.run(); err != nil {
		return nil, err
	}

	heap := startHeapWatch()
	start := time.Now()
	cpu0 := cpuTime()
	paced, err := sv.pacedPhase(in, o.trace)
	if err != nil {
		heap.finish()
		return nil, err
	}
	pacedCPU := cpuTime() - cpu0
	// A traced run repeats the flat-out phase at least twice, each time
	// right after an untraced run of it: the reference for the tracing
	// overhead.
	minFlats := 1
	if o.trace {
		minFlats = 2
	}
	var flats, bases []*phaseRun
	var flatWalls, flatCPUs, baseWalls []time.Duration
	for len(flats) < minFlats || time.Since(start)+medianDuration(flatWalls)+medianDuration(baseWalls) <= budget {
		if err := setup.tick(time.Since(start)); err != nil {
			heap.finish()
			return nil, err
		}
		if o.trace {
			r, err := sv.flatPhase(in, sv.pacedJobs, sv.flatJobs, false)
			if err != nil {
				heap.finish()
				return nil, err
			}
			bases = append(bases, r)
			baseWalls = append(baseWalls, r.wall)
		}
		cpu0 := cpuTime()
		r, err := sv.flatPhase(in, sv.pacedJobs, sv.flatJobs, o.trace)
		if err != nil {
			heap.finish()
			return nil, err
		}
		flats = append(flats, r)
		flatWalls = append(flatWalls, r.wall)
		flatCPUs = append(flatCPUs, cpuTime()-cpu0)
	}
	heapMiB := heap.finish()
	setups, err := setup.finish()
	if err != nil {
		return nil, err
	}
	rep.setup(setups)

	first := flats[0]
	rep.Digest = combineDigests([]string{paced.out.digest, first.out.digest})
	rep.Attempted = paced.out.jobs
	rep.Failed = paced.out.failed
	for _, f := range flats {
		rep.Attempted += f.out.jobs
		rep.Failed += f.out.failed
		if f.out.digest != first.out.digest {
			rep.Failed += f.out.jobs
		}
	}
	for _, b := range bases {
		rep.Attempted += b.out.jobs
		rep.Failed += b.out.failedAgainst(first.out.digest)
	}
	rep.Replays = 1 + len(flats)
	rep.ReplayLog = append(rep.ReplayLog, replaySample{"paced", paced.out.jobs, paced.events, paced.wall.Seconds(), pacedCPU.Seconds()})
	for i, f := range flats {
		rep.ReplayLog = append(rep.ReplayLog, replaySample{"flat-out", f.out.jobs, f.events, f.wall.Seconds(), flatCPUs[i].Seconds()})
	}

	// Wall time is the flat-out phase's, at the median of its repeats; CPU
	// time covers both phases, so work hidden behind pacing shows.
	var q quality
	q.add(paced.out.q)
	q.add(first.out.q)
	flatWall := medianDuration(flatWalls)
	rates := make([]float64, len(flats))
	for i, f := range flats {
		rates[i] = float64(f.out.jobs) / f.wall.Seconds()
	}
	rep.timing("flat_jobs_per_s", rates)
	rep.putHost(flatWall, pacedCPU+medianDuration(flatCPUs), first.out.jobs, first.events,
		paced.out.jobs+first.out.jobs, paced.events+first.events)
	rep.put("heap_peak_mib", heapMiB)
	rep.putQuality(q)

	// The lag metrics exist only for this workload; see README.md for why
	// they are reported here and not in BENCHMARK.json.
	lag := summarize(paced.lags)
	rep.extra("lag_p50_ms", lag.Median, "ms")
	rep.extra("lag_p99_ms", quantileOf(paced.lags, 0.99), "ms")
	limit := float64(sv.lateLimit) / 1e6
	late := paced.out.failed
	for _, l := range paced.lags {
		if l > limit {
			late++
		}
	}
	rep.extra("late_frac", float64(late)/float64(paced.out.jobs), "frac")
	rep.Timings["lag_ms"] = lag
	rep.Timings["gen_late_ms"] = summarize(paced.genLate)

	if o.trace {
		var lt layerTotals
		var sub layerTotals
		var engineWall time.Duration
		var events uint64
		var logs []*spanLog
		for _, f := range flats {
			lt = lt.plus(f.engine)
			sub = sub.plus(f.submitter)
			engineWall += f.wall
			events += f.events
			logs = append(logs, f.logs...)
		}
		sub = sub.plus(paced.submitter)
		logs = append(logs, paced.logs...)
		child := lt.newPolicyNS + lt.pickNS + lt.recordNS + lt.onResultNS
		rep.putLayerCommon(lt, q, float64(engineWall), float64(child), events)
		rep.put("traceio.ns_per_job", ratio(float64(sub.nextNS), float64(sub.nextN)))
		rep.put("serve.submit_p50_us", quantileOf(paced.submitUS, 0.5))
		rep.put("serve.submit_p99_us", quantileOf(paced.submitUS, 0.99))
		rep.put("serve.gen_late_p99_ms", quantileOf(paced.genLate, 0.99))
		rep.put("serve.queue_depth_max", float64(paced.maxDepth))
		snaps := append([]float64(nil), paced.snapshotUS...)
		for _, f := range flats {
			snaps = append(snaps, f.snapshotUS...)
		}
		rep.put("metrics.snapshot_us", median(snaps))
		var crashes uint64
		for _, ph := range []struct {
			skip, n int
			out     replayOutcome
		}{{0, sv.pacedJobs, paced.out}, {sv.pacedJobs, sv.flatJobs, first.out}} {
			out, fs, err := sv.offlineReplay(in, ph.skip, ph.n)
			if err != nil {
				return nil, err
			}
			rep.Attempted += out.jobs
			rep.Failed += out.failedAgainst(ph.out.digest)
			crashes += fs.Crashes
		}
		rep.put("fault.crashes", float64(crashes))
		rep.put("trace_overhead_frac", 1-float64(medianDuration(baseWalls))/float64(medianDuration(flatWalls)))
		rep.Timings["submit_us"] = summarize(paced.submitUS)
		rep.Timings["snapshot_us"] = summarize(snaps)
		rep.logs = logs
	}
	return rep, nil
}
