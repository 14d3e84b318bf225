package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/trace"
)

// replayTestConfig is a small but real mixed replay: all three job classes,
// speculation, deadlines and pooling all exercised.
func replayTestConfig(jobs int) ReplayConfig {
	rc := DefaultReplayConfig(jobs)
	rc.Machines = 40
	rc.Policy = "gs"
	return rc
}

func TestReplayAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("full streaming replay")
	}
	// 250 jobs: all three classes and multi-wave jobs appear, while the
	// test stays affordable under -race (the 100K CI smoke covers scale).
	rs, err := Replay(replayTestConfig(250))
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.DeadlineJobs + rs.ErrorJobs; got != 250 {
		t.Fatalf("classes sum to %d jobs, want 250", got)
	}
	if got := rs.BinCounts[0] + rs.BinCounts[1] + rs.BinCounts[2]; got != 250 {
		t.Fatalf("bins sum to %d jobs, want 250", got)
	}
	// The mixed workload must actually mix.
	if rs.DeadlineJobs == 0 || rs.ErrorJobs == 0 {
		t.Fatalf("degenerate mix: %d deadline, %d error", rs.DeadlineJobs, rs.ErrorJobs)
	}
	if rs.MeanAccuracy <= 0 || rs.MeanAccuracy > 1 {
		t.Fatalf("mean accuracy %v out of (0, 1]", rs.MeanAccuracy)
	}
	if rs.MeanInputDur <= 0 || rs.Makespan <= 0 || rs.Events == 0 || rs.Launched == 0 {
		t.Fatalf("empty aggregates: %+v", rs)
	}
	if rs.HeapHighWater == 0 || rs.HeapSysHighWater == 0 {
		t.Fatal("memory high-water not sampled")
	}
	var buf bytes.Buffer
	rs.Render(&buf)
	if !strings.Contains(buf.String(), "memory high-water") {
		t.Fatalf("render missing memory line:\n%s", buf.String())
	}
}

// TestReplayDeterministic: the memory sampler only observes — two replays
// of the same config agree on every simulation-derived number.
func TestReplayDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full streaming replay")
	}
	run := func(sample time.Duration) *ReplayStats {
		rc := replayTestConfig(120)
		rc.MemSample = sample
		rs, err := Replay(rc)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := run(5*time.Millisecond), run(40*time.Millisecond)
	if a.Events != b.Events || a.Makespan != b.Makespan ||
		a.MeanAccuracy != b.MeanAccuracy || a.MeanInputDur != b.MeanInputDur ||
		a.Launched != b.Launched || a.Killed != b.Killed {
		t.Fatalf("replay not deterministic:\n a: %+v\n b: %+v", a, b)
	}
}

func TestReplayRejectsBadConfig(t *testing.T) {
	bogusPolicy := DefaultReplayConfig(10)
	bogusPolicy.Policy = "bogus"
	for name, rc := range map[string]ReplayConfig{
		"zero jobs":    {},
		"bogus policy": bogusPolicy,
		// Partitions derived from Shards obey the same jobs-vs-partitions
		// rule as explicit ones.
		"2 jobs on 4 shards":     {RunSpec: RunSpec{Jobs: 2}, Shards: 4},
		"3 jobs, 4 partitions":   {RunSpec: RunSpec{Jobs: 3}, Partitions: 4},
		"bogus fault scenario":   {RunSpec: RunSpec{Jobs: 10, Scenario: "bogus"}},
		"unknown learner kind":   {RunSpec: RunSpec{Jobs: 10, Learner: core.LearnerKind(9)}},
		"negative shard count":   {RunSpec: RunSpec{Jobs: 10}, Shards: -1},
		"negative partition cnt": {RunSpec: RunSpec{Jobs: 10}, Partitions: -1},
	} {
		if _, err := Replay(rc); err == nil {
			t.Errorf("%s: replay accepted", name)
		}
	}
}

// TestReplayFrameworkNoise: a replay runs with the same simulator
// configuration as the figure harness for its framework — in particular
// Spark's extra estimator noise (§6.3.2) — so a one-partition replay of a
// trace equals Config.Run on that trace, for Hadoop and Spark alike.
func TestReplayFrameworkNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("full streaming replay")
	}
	const load = 0.75
	for _, fw := range []trace.Framework{trace.Hadoop, trace.Spark} {
		t.Run(fw.String(), func(t *testing.T) {
			rc := replayTestConfig(80)
			rc.Framework = fw
			rc.Bound = trace.DeadlineBound
			rc.Load = load
			rs, err := Replay(rc)
			if err != nil {
				t.Fatal(err)
			}
			c := Config{Jobs: rc.Jobs, Machines: rc.Machines, SlotsPerMachine: rc.SlotsPerMachine, DeadlineLoad: load}
			results, err := c.Run(trace.Facebook, fw, trace.DeadlineBound, rc.Policy, rc.Seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			var launched, killed int64
			var accSum float64
			for _, r := range results {
				launched += int64(r.Launched)
				killed += int64(r.Killed)
				accSum += r.Accuracy
			}
			acc := accSum / float64(len(results))
			if rs.DeadlineJobs != len(results) || rs.Launched != launched || rs.Killed != killed || rs.MeanAccuracy != acc {
				t.Fatalf("replay diverged from Config.Run: replay %d jobs, launched %d, killed %d, accuracy %v; run %d jobs, launched %d, killed %d, accuracy %v",
					rs.DeadlineJobs, rs.Launched, rs.Killed, rs.MeanAccuracy, len(results), launched, killed, acc)
			}
		})
	}
}

// TestReplayShardInvariance: the shard (worker) count never touches replay
// results — only the partition count is model-visible — and one partition
// reduces to the plain pre-sharding replay exactly.
func TestReplayShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full streaming replay")
	}
	run := func(partitions, shards int) *ReplayStats {
		rc := replayTestConfig(200)
		rc.Partitions = partitions
		rc.Shards = shards
		rs, err := Replay(rc)
		if err != nil {
			t.Fatal(err)
		}
		// Normalize the execution-only fields before comparison.
		rs.Wall, rs.ShardWalls, rs.Shards = 0, nil, 0
		rs.HeapHighWater, rs.HeapSysHighWater = 0, 0
		return rs
	}
	plain := run(1, 1)
	for _, shards := range []int{2, 4, 8} {
		if got := run(1, shards); !reflect.DeepEqual(got, plain) {
			t.Fatalf("partitions=1 shards=%d changed the replay:\n got: %+v\nwant: %+v", shards, got, plain)
		}
	}
	four := run(4, 1)
	for _, shards := range []int{2, 4, 8} {
		if got := run(4, shards); !reflect.DeepEqual(got, four) {
			t.Fatalf("partitions=4 shards=%d changed the replay:\n got: %+v\nwant: %+v", shards, got, four)
		}
	}
	if four.ErrorJobs+four.DeadlineJobs != 200 {
		t.Fatalf("partitioned replay lost jobs: %+v", four)
	}
}

// TestReplayShardedGolden pins the partitioned replay's headline
// aggregates for a fixed seed — the golden leg of the sharded-determinism
// evidence. These values must never move underneath a refactor of the
// sharding machinery: the model is only allowed to change when the
// partitioner or the engine changes deliberately (note it in the git
// history and regenerate, as with the simulation goldens).
func TestReplayShardedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full streaming replay")
	}
	rc := replayTestConfig(200)
	rc.Partitions = 4
	rc.Shards = 2
	rs, err := Replay(rc)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("jobs=%d events=%d makespan=%.6f acc=%.6f dur=%.6f launched=%d killed=%d bins=%d/%d/%d",
		rs.DeadlineJobs+rs.ErrorJobs, rs.Events, rs.Makespan, rs.MeanAccuracy, rs.MeanInputDur,
		rs.Launched, rs.Killed, rs.BinCounts[0], rs.BinCounts[1], rs.BinCounts[2])
	const want = "jobs=200 events=35125 makespan=22663.595005 acc=0.485074 dur=212.074533 launched=53724 killed=18503 bins=104/70/26"
	if got != want {
		t.Fatalf("sharded replay golden moved:\n got: %s\nwant: %s", got, want)
	}
}

// TestReplayLearnEpochs: a multi-epoch sketch-learner replay carries
// merged learned state across epochs, stays deterministic for any worker
// count, and reports the final epoch's aggregates for exactly one trace.
func TestReplayLearnEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("full streaming replay")
	}
	run := func(shards int) *ReplayStats {
		rc := replayTestConfig(150)
		rc.Policy = "grass"
		rc.Learner = core.LearnerSketch
		rc.LearnEpochs = 2
		rc.Partitions = 2
		rc.Shards = shards
		rs, err := Replay(rc)
		if err != nil {
			t.Fatal(err)
		}
		rs.Wall, rs.ShardWalls, rs.Shards = 0, nil, 0
		rs.HeapHighWater, rs.HeapSysHighWater = 0, 0
		return rs
	}
	a, b := run(1), run(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("multi-epoch replay not worker-invariant:\n a: %+v\n b: %+v", a, b)
	}
	if got := a.DeadlineJobs + a.ErrorJobs; got != 150 {
		t.Fatalf("final-epoch aggregates cover %d jobs, want 150", got)
	}
	if a.Learner != "sketch" || a.LearnEpochs != 2 {
		t.Fatalf("learning config not echoed: %q/%d", a.Learner, a.LearnEpochs)
	}
	var buf bytes.Buffer
	a.Render(&buf)
	if !strings.Contains(buf.String(), "grass learning") {
		t.Fatalf("render missing learning line:\n%s", buf.String())
	}
}

func TestReplayLearnEpochsValidation(t *testing.T) {
	// Epochs need a mergeable learner: the default ring store cannot
	// carry state across epochs.
	rc := DefaultReplayConfig(10)
	rc.Policy = "grass"
	rc.LearnEpochs = 2
	if _, err := Replay(rc); err == nil {
		t.Fatal("ring-learner multi-epoch replay accepted")
	}
	rc = DefaultReplayConfig(10)
	rc.Learner = core.LearnerKind(9)
	if _, err := Replay(rc); err == nil {
		t.Fatal("unknown learner kind accepted")
	}
	rc = DefaultReplayConfig(10)
	rc.LearnEpochs = -1
	if _, err := Replay(rc); err == nil {
		t.Fatal("negative epoch count accepted")
	}
	// A non-learning policy exports no state, so a second epoch has
	// nothing to seed — the replay must say so rather than silently
	// running independent passes.
	rc = DefaultReplayConfig(30)
	rc.Policy = "gs"
	rc.Learner = core.LearnerSketch
	rc.LearnEpochs = 2
	if _, err := Replay(rc); err == nil {
		t.Fatal("multi-epoch replay of a non-learning policy accepted")
	}
}
