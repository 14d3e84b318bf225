package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/task"
)

// collector gathers one replay's results by job ID. Its jobs carry the
// dense IDs base..base+n-1; anything else, a duplicate or a missing ID is
// a failed output check.
type collector struct {
	base    int
	res     []sched.JobResult
	seen    []bool
	strange int // out-of-range or duplicate IDs
}

func newCollector(base, n int) *collector {
	return &collector{base: base, res: make([]sched.JobResult, n), seen: make([]bool, n)}
}

func (c *collector) add(r sched.JobResult) {
	i := r.JobID - c.base
	if i < 0 || i >= len(c.res) || c.seen[i] {
		c.strange++
		return
	}
	c.seen[i] = true
	c.res[i] = r
}

// resultOK checks one result's invariants.
func resultOK(r sched.JobResult) bool {
	if !(r.Accuracy >= 0 && r.Accuracy <= 1) {
		return false
	}
	if r.Launched < 0 || r.Speculative > r.Launched || r.Killed > r.Launched ||
		r.Preempted > r.Launched || r.Lost > r.Launched {
		return false
	}
	for _, d := range []float64{r.Duration, r.InputDuration} {
		if !(d > 0) || math.IsInf(d, 0) {
			return false
		}
	}
	return true
}

// replayOutcome is what a replay's results add up to.
type replayOutcome struct {
	jobs   int // results expected
	failed int // jobs that failed a check or never returned
	digest string
	q      quality
	events uint64 // simulated events, filled in by the replay
}

// failedAgainst is how many of the replay's jobs fail when it must
// reproduce the digest ref: every job on a mismatch, else those that
// failed a check.
func (o replayOutcome) failedAgainst(ref string) int {
	if o.digest != ref {
		return o.jobs
	}
	return o.failed
}

// quality folds the virtual-time results the paper judges schedulers by.
type quality struct {
	deadlineJobs, errorJobs             int
	accSum, durSum                      float64
	launched, speculative, killed, lost int64
}

func (q *quality) add(o quality) {
	q.deadlineJobs += o.deadlineJobs
	q.errorJobs += o.errorJobs
	q.accSum += o.accSum
	q.durSum += o.durSum
	q.launched += o.launched
	q.speculative += o.speculative
	q.killed += o.killed
	q.lost += o.lost
}

// finish checks every result and digests them in ID order. A missing job
// hashes as its ID alone, so the digest still differs from a complete run.
func (c *collector) finish() replayOutcome {
	out := replayOutcome{jobs: len(c.res), failed: c.strange}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, r := range c.res {
		if !c.seen[i] {
			out.failed++
			put(uint64(c.base + i))
			continue
		}
		if !resultOK(r) {
			out.failed++
		}
		for _, v := range []int{r.JobID, r.NumTasks, int(r.Bin), int(r.Kind), r.DAGLength,
			r.Launched, r.Speculative, r.Killed, r.Preempted, r.Lost} {
			put(uint64(v))
		}
		for _, v := range []float64{r.Deadline, r.Epsilon, r.DeadlineFactor, r.Accuracy,
			r.Duration, r.InputDuration, r.StragglerRatio} {
			put(math.Float64bits(v))
		}
		if r.Kind == task.DeadlineBound {
			out.q.deadlineJobs++
			out.q.accSum += r.Accuracy
		} else {
			out.q.errorJobs++
			out.q.durSum += r.InputDuration
		}
		out.q.launched += int64(r.Launched)
		out.q.speculative += int64(r.Speculative)
		out.q.killed += int64(r.Killed)
		out.q.lost += int64(r.Lost)
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// combineDigests folds per-replay digests, in input order, into one.
func combineDigests(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}
