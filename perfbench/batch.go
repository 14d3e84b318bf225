package main

import (
	"fmt"
	"time"

	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/fault"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/trace"
)

// batchSpec is an offline replay workload: a synthetic trace streamed
// through the simulator flat out. A run replays `units` distinct
// sub-traces of `jobs` jobs each (the inputs, all derived from the seed),
// then cycles through them again while time remains; every repeat must
// reproduce its first replay exactly.
type batchSpec struct {
	policy   string
	workload trace.Workload
	// parts is the partition count (1 = the plain engine, built by the
	// benchmark itself); workers the goroutines executing partitions.
	parts, workers int
	units, jobs    int
	// warmJobs is the length of the warm-up replay each set-up ends with.
	warmJobs int
}

// newFactory builds a policy family by name. GRASS runs with its default
// learner.
func newFactory(policy string, seed int64) (spec.Factory, error) {
	switch policy {
	case "grass":
		c := core.DefaultConfig()
		c.Seed = seed
		return core.New(c)
	case "nospec":
		return spec.Stateless(spec.NoSpec{}), nil
	case "late":
		return spec.Stateless(spec.NewLATE()), nil
	}
	return nil, fmt.Errorf("perfbench: unknown policy %q", policy)
}

// simConfig is the paper's 200×2 cluster with the given seed and fault
// preset.
func simConfig(seed int64, jobs int, scenario string) (sched.Config, error) {
	c := sched.DefaultConfig()
	c.Seed = seed
	c.MaxEvents = uint64(jobs)*2000 + 1_000_000
	f, err := fault.Scenario(scenario)
	if err != nil {
		return c, err
	}
	c.Faults = f
	return c, c.Validate()
}

// replayRun is one replay's outcome and host cost.
type replayRun struct {
	out       replayOutcome
	wall      time.Duration
	events    uint64
	partWalls []time.Duration // per partition, sharded replays only
	// touches is Simulator.TouchStats (view touches, TNew rescales, launch
	// attempts) where the benchmark builds the simulator itself.
	touches [3]uint64
	faults  sched.FaultStats
	layers  layerTotals
	logs    []*spanLog
	// mergeTail is how long a traced sharded replay ran after its last
	// partition finished: the merge's drain.
	mergeTail time.Duration
}

// replay streams sub-trace `unit` of the seed, truncated to n jobs, through
// the simulator. With traced set, every source, factory and policy call is
// timed from outside and spans are kept.
func (b *batchSpec) replay(seed int64, unit, n int, traced bool) (*replayRun, error) {
	s := dist.SubSeed(seed, unit)
	tc := trace.DefaultConfig(b.workload, trace.Hadoop, trace.MixedBound)
	tc.Jobs, tc.Seed, tc.Slots, tc.Load = n, s, 400, 0.75
	cfg, err := simConfig(s, n, "")
	if err != nil {
		return nil, err
	}
	col := newCollector(0, n)
	run := &replayRun{}
	replayID := newSpanID()
	var tracers []*engineTracer
	if traced {
		for p := 0; p < b.parts; p++ {
			t := &engineTracer{parent: replayID}
			if b.parts > 1 {
				t.parent = newSpanID()
			}
			tracers = append(tracers, t)
		}
	}
	t0 := now()
	if b.parts == 1 {
		err = b.replayPlain(cfg, tc, col, run, tracers)
	} else {
		err = b.replaySharded(cfg, tc, col, run, tracers)
	}
	t1 := now()
	if err != nil {
		return nil, err
	}
	run.wall = time.Duration(t1 - t0)
	run.out = col.finish()
	run.out.events = run.events
	if traced {
		root := &spanLog{}
		root.spans = append(root.spans, span{ID: replayID, Name: spanReplay, Start: t0, End: t1, Job: -1})
		run.logs = append(run.logs, root)
		var lastEnd int64
		for p, t := range tracers {
			run.layers = run.layers.plus(t.clock)
			run.logs = append(run.logs, &t.log)
			if b.parts > 1 {
				end := t.partStart + int64(run.partWalls[p])
				lastEnd = max(lastEnd, end)
				root.spans = append(root.spans, span{ID: t.parent, Parent: replayID, Name: spanPartition,
					Start: t.partStart, End: end, Job: -1})
			}
		}
		if b.parts > 1 {
			run.mergeTail = time.Duration(t1 - lastEnd)
		}
	}
	return run, nil
}

// replayPlain builds the simulator itself, so TouchStats is readable.
func (b *batchSpec) replayPlain(cfg sched.Config, tc trace.Config, col *collector, run *replayRun, tracers []*engineTracer) error {
	f, err := newFactory(b.policy, cfg.Seed)
	if err != nil {
		return err
	}
	stream, err := trace.NewStream(tc)
	if err != nil {
		return err
	}
	var src sched.Source = stream
	if tracers != nil {
		f = wrapFactory(f, tracers[0])
		src = &tracedSource{src: stream, t: tracers[0]}
	}
	sim, err := sched.New(cfg, f)
	if err != nil {
		return err
	}
	sim.OnResult(col.add)
	st, err := sim.RunSource(src)
	if err != nil {
		return err
	}
	run.events = st.Events
	run.faults = st.Faults
	run.touches[0], run.touches[1], run.touches[2] = sim.TouchStats()
	return nil
}

// replaySharded runs the partitions through sched.RunSharded, whose merge
// delivers results in ID order.
func (b *batchSpec) replaySharded(cfg sched.Config, tc trace.Config, col *collector, run *replayRun, tracers []*engineTracer) error {
	// RunSharded hands NewFactory only the partition's seed; map it back.
	partOf := make(map[int64]int, b.parts)
	for p := 0; p < b.parts; p++ {
		partOf[sched.ShardSeed(cfg.Seed, p, b.parts)] = p
	}
	run.partWalls = make([]time.Duration, b.parts)
	st, err := sched.RunSharded(sched.ShardedRun{
		Config:  cfg,
		Parts:   b.parts,
		Workers: b.workers,
		NewFactory: func(seed int64) (spec.Factory, error) {
			f, err := newFactory(b.policy, seed)
			if err != nil || tracers == nil {
				return f, err
			}
			t := tracers[partOf[seed]]
			t.partStart = now()
			return wrapFactory(f, t), nil
		},
		NewSource: func(p int) (sched.Source, error) {
			stream, err := trace.NewShardStream(tc, p, b.parts)
			if err != nil {
				return nil, err
			}
			if tracers == nil {
				return stream, nil
			}
			return &tracedSource{src: stream, t: tracers[p]}, nil
		},
		OnResult: col.add,
		Jobs:     tc.Jobs,
		Walls:    run.partWalls,
	})
	if err != nil {
		return err
	}
	run.events = st.Events
	run.faults = st.Faults
	return nil
}

// batchPass accumulates a run's replays.
type batchPass struct {
	first     []replayOutcome   // the first replay of every unit, in order
	walls     [][]time.Duration // per unit, every replay's wall
	cpus      [][]time.Duration // per unit, every replay's process CPU time
	attempted int
	failed    int
	samples   []replaySample
	events    uint64        // over every replay
	engine    time.Duration // partition walls summed (the plain replay's wall)
	layers    layerTotals
	logs      []*spanLog
	touches   [3]uint64
	balance   []float64 // Σ partition walls / max partition wall
	tail      []float64 // merge tail, seconds
	parEff    []float64 // Σ partition walls / (replay wall × workers)
	faults    sched.FaultStats
}

func (p *batchPass) add(b *batchSpec, i int, r *replayRun, cpu time.Duration) {
	u := i % b.units
	p.attempted += r.out.jobs
	p.failed += r.out.failed
	if i < b.units {
		p.first = append(p.first, r.out)
		p.walls = append(p.walls, nil)
		p.cpus = append(p.cpus, nil)
	} else if r.out.digest != p.first[u].digest {
		// A repeat that disagrees with its first replay fails every job.
		p.failed += r.out.jobs
	}
	p.walls[u] = append(p.walls[u], r.wall)
	p.cpus[u] = append(p.cpus[u], cpu)
	p.events += r.events
	p.samples = append(p.samples, replaySample{fmt.Sprintf("sub-trace %d", u), r.out.jobs, r.events, r.wall.Seconds(), cpu.Seconds()})
	p.layers = p.layers.plus(r.layers)
	p.logs = append(p.logs, r.logs...)
	for k := range r.touches {
		p.touches[k] += r.touches[k]
	}
	p.faults.Crashes += r.faults.Crashes
	if len(r.partWalls) == 0 {
		p.engine += r.wall
		return
	}
	var sum, max time.Duration
	for _, w := range r.partWalls {
		sum += w
		if w > max {
			max = w
		}
	}
	p.engine += sum
	p.balance = append(p.balance, float64(sum)/float64(max))
	p.tail = append(p.tail, r.mergeTail.Seconds())
	p.parEff = append(p.parEff, float64(sum)/(float64(r.wall)*float64(min(b.workers, b.parts))))
}

// medianDuration is the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// throughput reports the run's host cost of its fixed input set: every
// sub-trace weighs once, at the median of its replays, however many times
// the time budget let it repeat.
func (p *batchPass) throughput() (wall, cpu time.Duration, jobs int, events uint64) {
	for u, f := range p.first {
		wall += medianDuration(p.walls[u])
		cpu += medianDuration(p.cpus[u])
		jobs += f.jobs
		events += f.events
	}
	return wall, cpu, jobs, events
}

// run performs one benchmark run of a batch workload.
func (b *batchSpec) run(o options) (*report, error) {
	rep := newReport(o)
	budget := time.Duration(o.seconds * float64(time.Second))
	setup := &setupTimer{budget: budget, do: func() error {
		_, err := b.replay(warmSeed, 0, b.warmJobs, false)
		return err
	}}
	if err := setup.run(); err != nil {
		return nil, err
	}

	// A traced run replays sub-trace 0 at least twice, each time right
	// after an untraced replay of it: the reference for the tracing
	// overhead.
	minReplays := b.units
	if o.trace {
		minReplays = b.units + 1
	}
	var pass batchPass
	var base []*replayRun
	heap := startHeapWatch()
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minReplays && time.Since(start)*time.Duration(i+1)/time.Duration(i) > budget {
			break
		}
		if err := setup.tick(time.Since(start)); err != nil {
			heap.finish()
			return nil, err
		}
		if o.trace && i%b.units == 0 {
			r, err := b.replay(o.seed, 0, b.jobs, false)
			if err != nil {
				heap.finish()
				return nil, err
			}
			base = append(base, r)
		}
		cpu0 := cpuTime()
		r, err := b.replay(o.seed, i%b.units, b.jobs, o.trace)
		if err != nil {
			heap.finish()
			return nil, err
		}
		pass.add(b, i, r, cpuTime()-cpu0)
	}
	heapMiB := heap.finish()
	setups, err := setup.finish()
	if err != nil {
		return nil, err
	}
	rep.setup(setups)

	digests := make([]string, len(pass.first))
	var q quality
	for i, f := range pass.first {
		digests[i] = f.digest
		q.add(f.q)
	}
	baseWalls := make([]time.Duration, len(base))
	for i, r := range base {
		baseWalls[i] = r.wall
		pass.attempted += r.out.jobs
		pass.failed += r.out.failedAgainst(pass.first[0].digest)
	}
	rep.Digest = combineDigests(digests)
	rep.Attempted, rep.Failed = pass.attempted, pass.failed
	rep.Replays = len(pass.samples)
	rep.ReplayLog = pass.samples

	wall, cpu, jobs, events := pass.throughput()
	rep.putHost(wall, cpu, jobs, events, jobs, events)
	rep.put("heap_peak_mib", heapMiB)
	rep.putQuality(q)
	rates := make([]float64, len(pass.samples))
	for i, s := range pass.samples {
		rates[i] = float64(s.Jobs) / s.WallS
	}
	rep.timing("replay_jobs_per_s", rates)

	if o.trace {
		lt := pass.layers
		engineNS := float64(pass.engine)
		child := lt.nextNS + lt.newPolicyNS + lt.pickNS + lt.recordNS
		rep.putLayerCommon(lt, q, engineNS, float64(child), pass.events)
		rep.put("trace.ns_per_job", ratio(float64(lt.nextNS), float64(lt.nextN)))
		if b.policy == "grass" {
			rep.put("core.ns_per_policy", ratio(float64(lt.newPolicyNS), float64(lt.newPolicyN)))
			rep.put("core.ns_per_record", ratio(float64(lt.recordNS), float64(lt.recordN)))
		}
		if pass.touches[2] > 0 {
			rep.put("sched.attempts_per_event", float64(pass.touches[2])/float64(pass.events))
			rep.put("sched.touches_per_attempt", float64(pass.touches[0])/float64(pass.touches[2]))
		}
		if b.parts > 1 {
			rep.put("shard.balance", median(pass.balance))
			rep.put("shard.merge_tail_s", median(pass.tail))
			rep.put("shard.parallel_eff", median(pass.parEff))
		}
		rep.put("fault.crashes", float64(pass.faults.Crashes))
		rep.put("trace_overhead_frac", 1-float64(medianDuration(baseWalls))/float64(medianDuration(pass.walls[0])))
		rep.logs = pass.logs
	}
	return rep, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
