package grass_test

import (
	"reflect"
	"testing"

	grass "github.com/approx-analytics/grass"
)

// smallSim returns a fast simulator configuration for facade tests.
func smallSim(seed int64) grass.SimConfig {
	cfg := grass.DefaultSimConfig()
	cfg.Cluster.Machines = 20
	cfg.Seed = seed
	return cfg
}

func smallTrace(b grass.BoundMode, seed int64) grass.TraceConfig {
	tc := grass.DefaultTraceConfig(grass.Facebook, grass.Hadoop, b)
	tc.Jobs = 30
	tc.Slots = 40
	tc.Seed = seed
	return tc
}

func TestQuickstartFlow(t *testing.T) {
	jobs, err := grass.GenerateTrace(smallTrace(grass.DeadlineBound, 1))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := grass.SimulateJobs(smallSim(1), "grass", jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Results) != 30 {
		t.Fatalf("%d results", len(stats.Results))
	}
	acc := grass.MeanAccuracy(stats.Results)
	if acc <= 0 || acc > 1 {
		t.Fatalf("mean accuracy %v", acc)
	}
}

func TestHandBuiltJobs(t *testing.T) {
	work := make([]float64, 60)
	for i := range work {
		work[i] = 1
	}
	jobs := []*grass.Job{
		{ID: 0, InputWork: work, Bound: grass.NewError(0.1)},
		{ID: 1, Arrival: 1, InputWork: work[:20], Bound: grass.Exact(),
			Phases: []grass.Phase{{NumTasks: 4, WorkScale: 1}}},
		{ID: 2, Arrival: 2, InputWork: work[:10], Bound: grass.NewDeadline(5)},
	}
	stats, err := grass.SimulateJobs(smallSim(2), "ras", jobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results[0].Accuracy < 0.89 {
		t.Fatalf("error-bound job accuracy %v", stats.Results[0].Accuracy)
	}
	if stats.Results[1].Accuracy != 1 {
		t.Fatalf("exact job accuracy %v", stats.Results[1].Accuracy)
	}
	if stats.Results[1].DAGLength != 2 {
		t.Fatal("DAG length lost")
	}
}

// TestStreamedSimulationMatchesMaterialized pins the public streaming API:
// StreamTrace+SimulateSource reproduce GenerateTrace+SimulateJobs exactly,
// and WithFold delivers the same per-job results without accumulating.
func TestStreamedSimulationMatchesMaterialized(t *testing.T) {
	tc := smallTrace(grass.MixedBound, 4)
	jobs, err := grass.GenerateTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := grass.SimulateJobs(smallSim(4), "grass", jobs)
	if err != nil {
		t.Fatal(err)
	}

	stream, err := grass.StreamTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := grass.SimulateSource(smallSim(4), "grass", stream)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed stats differ from materialized:\n got: %+v\nwant: %+v", got, want)
	}

	stream2, err := grass.StreamTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	folded := make([]grass.JobResult, len(jobs))
	agg, err := grass.SimulateSource(smallSim(4), "grass", stream2, grass.WithFold(func(r grass.JobResult) {
		folded[r.JobID] = r
	}))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Results != nil {
		t.Fatal("WithFold still accumulated results")
	}
	if !reflect.DeepEqual(folded, want.Results) {
		t.Fatal("folded results differ from materialized results")
	}
}

func TestOraclePolicyAutoMode(t *testing.T) {
	jobs, _ := grass.GenerateTrace(smallTrace(grass.ErrorBound, 3))
	stats, err := grass.SimulateJobs(smallSim(3), "oracle", jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle mode leaves the estimator untouched (cold-start accuracy 0.5).
	if stats.EstimatorAccuracy != 0.5 {
		t.Fatalf("oracle run touched the estimator: %v", stats.EstimatorAccuracy)
	}
}

// TestOracleWithFactory: the oracle's factory carries its ground-truth view
// mode, so passing NewPolicy("oracle") through WithFactory runs exactly the
// named "oracle" simulation, not the oracle on estimated views.
func TestOracleWithFactory(t *testing.T) {
	jobs, _ := grass.GenerateTrace(smallTrace(grass.ErrorBound, 3))
	named, err := grass.SimulateJobs(smallSim(3), "oracle", jobs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := grass.NewPolicy("oracle", 3)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ = grass.GenerateTrace(smallTrace(grass.ErrorBound, 3))
	custom, err := grass.SimulateJobs(smallSim(3), "", jobs, grass.WithFactory(f))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(named, custom) {
		t.Fatalf("WithFactory(oracle) diverged from the named oracle run:\nnamed:  %+v\ncustom: %+v", named, custom)
	}
}

func TestCustomGrassPolicy(t *testing.T) {
	cfg := grass.DefaultGrassConfig()
	cfg.Xi = 0.3
	cfg.Seed = 4
	f, err := grass.NewGrassPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := grass.GenerateTrace(smallTrace(grass.ErrorBound, 4))
	if _, err := grass.SimulateJobs(smallSim(4), "", jobs, grass.WithFactory(f)); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownPolicy(t *testing.T) {
	jobs, _ := grass.GenerateTrace(smallTrace(grass.ErrorBound, 5))
	if _, err := grass.SimulateJobs(smallSim(5), "nope", jobs); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestMetricsHelpers(t *testing.T) {
	jobs, _ := grass.GenerateTrace(smallTrace(grass.ErrorBound, 6))
	late, err := grass.SimulateJobs(smallSim(6), "late", jobs)
	if err != nil {
		t.Fatal(err)
	}
	ras, err := grass.SimulateJobs(smallSim(6), "ras", jobs)
	if err != nil {
		t.Fatal(err)
	}
	// The helpers must agree with manual computation.
	sp := grass.SpeedupPct(late.Results, ras.Results)
	want := (grass.MeanDuration(late.Results) - grass.MeanDuration(ras.Results)) /
		grass.MeanDuration(late.Results) * 100
	if sp != want {
		t.Fatalf("speedup %v != %v", sp, want)
	}
	small := grass.FilterBin(late.Results, grass.Small)
	for _, r := range small {
		if r.Bin != grass.Small {
			t.Fatal("filter leaked other bins")
		}
	}
}

// TestSimulateTraceOptions pins the options-pattern entry point: with no
// options it reproduces SimulateSource exactly; with partitions the output
// is invariant to the shard (worker) count; and WithFold streams results
// in ascending JobID order without accumulating.
func TestSimulateTraceOptions(t *testing.T) {
	tc := smallTrace(grass.MixedBound, 7)
	stream, err := grass.StreamTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := grass.SimulateSource(smallSim(7), "gs", stream)
	if err != nil {
		t.Fatal(err)
	}
	got, err := grass.SimulateTrace(smallSim(7), tc, "gs")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SimulateTrace (no options) differs from SimulateSource:\n got: %+v\nwant: %+v", got, want)
	}

	part2, err := grass.SimulateTrace(smallSim(7), tc, "gs", grass.WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 8} {
		again, err := grass.SimulateTrace(smallSim(7), tc, "gs",
			grass.WithPartitions(2), grass.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, part2) {
			t.Fatalf("WithShards(%d) changed partitioned output", shards)
		}
	}
	if len(part2.Results) != tc.Jobs {
		t.Fatalf("partitioned run returned %d results, want %d", len(part2.Results), tc.Jobs)
	}

	next := 0
	folded, err := grass.SimulateTrace(smallSim(7), tc, "gs",
		grass.WithPartitions(2), grass.WithShards(2),
		grass.WithFold(func(r grass.JobResult) {
			if r.JobID != next {
				t.Fatalf("fold got job %d at position %d — not ascending JobID order", r.JobID, next)
			}
			if !reflect.DeepEqual(r, part2.Results[next]) {
				t.Fatalf("folded job %d differs from accumulated result", r.JobID)
			}
			next++
		}))
	if err != nil {
		t.Fatal(err)
	}
	if next != tc.Jobs {
		t.Fatalf("fold saw %d jobs, want %d", next, tc.Jobs)
	}
	if len(folded.Results) != 0 {
		t.Fatal("WithFold still accumulated results")
	}

	if _, err := grass.SimulateTrace(smallSim(7), tc, "nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	bad := tc
	bad.Jobs = 0
	if _, err := grass.SimulateTrace(smallSim(7), bad, "gs"); err == nil {
		t.Fatal("invalid trace config accepted")
	}
}
