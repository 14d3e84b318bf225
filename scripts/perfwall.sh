#!/usr/bin/env bash
# Perf-regression wall: fails when the simulator's per-event allocation
# budget regresses, and sanity-checks the sharded execution path.
# Allocation counts are deterministic (unlike ns/op, which depends on the
# machine), so CI can gate on them exactly:
#
#   - BenchmarkDispatch must stay at 0 allocs/op: the dispatch round has
#     been allocation-free since PR 2.
#   - BenchmarkSimulatorQuick's allocs/event must stay below the
#     BENCH_sim.json figures plus a small headroom. The hot per-task run
#     state lives in one struct-of-arrays block per job (no per-phase
#     taskRun/pointer slices), and the maintained candidate views serve
#     every phase: the variants measure gs 0.935, ras 0.849, late 0.715,
#     gs-stream 1.036. The gs/ras/late walls sit ~6% above the figures of
#     the retired per-attempt rebuild walk and were kept when the view
#     path changed, so an accidental revert of the allocation-free
#     dispatch, event pooling, incremental views, jobState recycling or
#     the task block fails CI while normal jitter does not. These same
#     ceilings are the "per-event ceiling at K=1" gate for the sharded
#     engine: one partition IS the plain engine, so the plain walls hold
#     for sharded K=1 by construction. Tighten the thresholds when BENCH_sim.json
#     advances.
#   - BenchmarkShardedReplay's "balance" metric (Σ partition walls / max
#     partition wall at 4 partitions) must stay ≥ 2.5: it is the
#     machine-independent ceiling on what 4 shard workers can gain, so a
#     partitioner change that skews load (and silently caps -shards
#     speedup below the acceptance floor) fails here even on a single-core
#     runner. Unlike the alloc gates this one is timing-derived, so the
#     wall takes the BEST balance across the three workers= variants
#     (identical model and work per variant — a transient runner stall
#     would have to hit all three independent runs to fake a skew);
#     round-robin partitioning keeps every sample at ~3.6-4.0.
#
# These exact walls double as the zero-cost gate for fault injection
# (PR 10): every benchmark here runs with faults disabled, where the
# simulator builds no injector and the hot path pays only nil checks —
# so a change that lets the fault machinery allocate or reorder events
# on a benign cluster fails the same exact ceilings. The priced fault
# path itself is tracked by BenchmarkSimulatorFaults in BENCH_sim.json.
#
# Usage: scripts/perfwall.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

# Record the environment alongside the numbers: ns/op comparisons are only
# meaningful within one machine, and the alloc gates assume the recorded
# GOMAXPROCS (benchmark names carry a -N suffix once it exceeds 1).
echo "perf wall env: $(go env GOVERSION) GOMAXPROCS=${GOMAXPROCS:-$(nproc)} NumCPU=$(nproc)"

out=$(go test ./internal/sched -run '^$' \
	-bench 'BenchmarkSimulatorQuick|BenchmarkDispatch' \
	-benchtime 20x -benchmem)
echo "$out"
fail=0

# Dispatch rounds must not allocate at all. An empty parse (renamed or
# restructured benchmark) fails too: a wall that checks nothing is no wall.
dispatched=0
while read -r name allocs; do
	dispatched=$((dispatched + 1))
	if [ "$allocs" != "0" ]; then
		echo "PERF WALL: $name allocated $allocs allocs/op, want 0" >&2
		fail=1
	fi
done < <(echo "$out" | awk '/^BenchmarkDispatch\// {
	for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $1, $(i-1) }')
if [ "$dispatched" -eq 0 ]; then
	echo "PERF WALL: no BenchmarkDispatch allocs/op lines parsed" >&2
	fail=1
else
	echo "perf wall: $dispatched dispatch benches at 0 allocs/op ok"
fi

# Full-simulation allocations per event, gated per policy.
check() { # check <sub-benchmark> <wall>
	local sub=$1 wall=$2 v
	# The -N GOMAXPROCS suffix is absent on single-core runners; match the
	# sub-benchmark exactly either way (so "gs" never matches "gs-stream").
	v=$(echo "$out" | awk -v re="^BenchmarkSimulatorQuick/$sub(-[0-9]+)?\$" '
		$1 ~ re {
			for (i = 1; i <= NF; i++) if ($i == "allocs/event") print $(i-1) }' | head -1)
	if [ -z "$v" ]; then
		echo "PERF WALL: no allocs/event metric for $sub" >&2
		fail=1
	elif awk -v v="$v" -v w="$wall" 'BEGIN { exit !(v > w) }'; then
		echo "PERF WALL: $sub at $v allocs/event exceeds the wall of $wall" >&2
		fail=1
	else
		echo "perf wall: $sub $v allocs/event <= $wall ok"
	fi
}
check gs 0.94
check ras 0.85
check late 0.72
# The streaming admission path (same workload via RunSource) must not
# regress either; it shares gs's headroom.
check gs-stream 1.05
# The GRASS learning policy under both learner stores. Record/Aggregate
# ride job lifecycle events, not the per-event hot path, so the mergeable
# sketch learner (PR 9) must stay within noise of the ring store: both
# measured ~1.17 allocs/event with the maintained views serving every
# phase (1.64 when small phases took the retired rebuild walk).
check grass 1.25
check grass-sketch 1.25

# Sharded execution: partition balance at 4 partitions. All three
# workers= variants compute the identical model, so their balance samples
# are three independent measurements of the same structural quantity —
# gate on the best one so a single stalled run cannot fail the wall.
sharded=$(go test ./internal/sched -run '^$' \
	-bench 'BenchmarkShardedReplay' -benchtime 1x)
echo "$sharded"
bal=$(echo "$sharded" | awk '/^BenchmarkShardedReplay\// {
	for (i = 1; i <= NF; i++) if ($i == "balance") print $(i-1) }' |
	sort -g | tail -1)
if [ -z "$bal" ]; then
	echo "PERF WALL: no balance metric from BenchmarkShardedReplay" >&2
	fail=1
elif awk -v v="$bal" 'BEGIN { exit !(v < 2.5) }'; then
	echo "PERF WALL: best shard balance $bal below 2.5 at 4 partitions — partitioning is skewed" >&2
	fail=1
else
	echo "perf wall: best shard balance $bal >= 2.5 ok"
fi

exit $fail
