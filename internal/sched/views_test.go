package sched

import (
	"testing"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

// TestEstimatorBumpDirtiesExactly pins the estimator-version invalidation
// property: an ObserveCompletion (version bump) must re-derive exactly
// the views whose fresh-copy estimate changed — no more (an unchanged
// normalized median rewrites nothing, because TNew = median × work × bias
// and work/bias are immutable) and no fewer (a moved median rewrites
// every incomplete task, completed tasks excluded).
func TestEstimatorBumpDirtiesExactly(t *testing.T) {
	s, err := New(smallConfig(5), spec.Stateless(spec.NewGS()))
	if err != nil {
		t.Fatal(err)
	}
	s.admit(uniformJob(0, 60, task.Exact(), 0))
	js := s.active[0]
	// Run until a few tasks completed, so "every incomplete task" is a
	// strict subset of the phase and the exclusion of completed tasks is
	// observable.
	for js.phase.completed < 5 {
		if !s.eng.Step() {
			t.Fatal("drained before 5 completions")
		}
	}
	if js.done || js.phase == nil {
		t.Fatal("job finished prematurely")
	}
	// Bring the views current, then observe which tasks each controlled
	// bump re-derives.
	s.refreshViews(js)
	var refreshed []int
	js.jv.onTNewRefresh = func(i int) { refreshed = append(refreshed, i) }

	incomplete := map[int]bool{}
	tnewBefore := map[int]float64{}
	for i := 0; i < js.phase.n; i++ {
		if js.tasks.completed[i] {
			continue
		}
		incomplete[i] = true
		tnewBefore[i] = js.jv.vs.At(i).TNew
	}

	// Case 1: insert the current median back into the estimator window.
	// The median is provably unchanged, so no estimate moved and the
	// refresh must rewrite nothing — while still advancing the cached
	// version so the check is not repeated.
	medBefore := s.est.NormalizedMedian()
	verBefore := s.est.Version()
	s.est.ObserveCompletion(medBefore)
	if s.est.Version() == verBefore {
		t.Fatal("ObserveCompletion did not bump the version")
	}
	if s.est.NormalizedMedian() != medBefore {
		t.Fatal("precondition failed: inserting the median moved the median")
	}
	s.refreshViews(js)
	if len(refreshed) != 0 {
		t.Fatalf("unchanged median re-derived %d views, want 0: %v", len(refreshed), refreshed)
	}
	if js.jv.estVer != s.est.Version() {
		t.Fatal("cached estimator version not advanced on a no-op bump")
	}
	for i, want := range tnewBefore {
		if got := js.jv.vs.At(i).TNew; got != want {
			t.Fatalf("task %d TNew moved on a no-op bump: %v -> %v", i, want, got)
		}
	}

	// Case 2: insert far-tail values until the median moves (the
	// duplicated middle from case 1 can absorb one insertion). Every
	// incomplete task's estimate then changes (its bias and work are
	// fixed, so TNew changes iff the median does), and the refresh must
	// re-derive exactly the incomplete set.
	for i := 0; i < 8 && s.est.NormalizedMedian() == medBefore; i++ {
		s.est.ObserveCompletion(100 * medBefore)
	}
	if s.est.NormalizedMedian() == medBefore {
		t.Fatal("precondition failed: tail observations did not move the median")
	}
	refreshed = refreshed[:0]
	s.refreshViews(js)
	got := map[int]bool{}
	for _, i := range refreshed {
		if got[i] {
			t.Fatalf("task %d re-derived twice in one refresh", i)
		}
		got[i] = true
		if !incomplete[i] {
			t.Fatalf("completed (or foreign) task %d re-derived", i)
		}
		if js.jv.vs.At(i).TNew == tnewBefore[i] {
			t.Fatalf("task %d re-derived but its estimate did not change", i)
		}
	}
	for i := range incomplete {
		if !got[i] {
			t.Fatalf("incomplete task %d (estimate changed) was not re-derived", i)
		}
	}
}

// TestLazyTNewRescaleIsInexact pins the reason the estimator-median patch
// loop in refreshViews stays O(incomplete) instead of becoming a lazy
// multiplicative epoch (the ROADMAP's "sub-O(n) exact TNew rescale if a
// provably exact scheme exists"): neither candidate scheme reproduces the
// patched values bit for bit, so neither can be hash-identical. The test
// hunts a deterministic sample space for witnesses of all three failure
// modes and requires each to appear — if float semantics somehow made
// these schemes exact, this test failing would be the signal to revisit.
func TestLazyTNewRescaleIsInexact(t *testing.T) {
	rng := dist.NewRNG(99)
	epochMiss, reassocMiss, orderFlips := 0, 0, 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		m1 := 0.5 + rng.Float64()*2          // median before the move
		m2 := m1 * (0.9 + rng.Float64()*0.2) // median after
		w := 0.1 + rng.Float64()*10          // task work (immutable)
		b := 0.5 + rng.Float64()             // tnew bias (immutable)
		patched := m2 * w * b                // the patch loop's left-to-right product
		if (m1*w*b)*(m2/m1) != patched {
			epochMiss++ // lazy epoch multiplier on the stored key
		}
		if m2*(w*b) != patched {
			reassocMiss++ // immutable per-task base, median applied on read
		}
		// Near-tied neighbor keys: a uniform positive rescale is monotone
		// per key but rounding can flip the ORDER of two keys, which is
		// why ResortByTNew revalidates after every bulk rescale.
		w2 := w * (1 + (rng.Float64()-0.5)*1e-15)
		b2 := b * (1 + (rng.Float64()-0.5)*1e-15)
		a1, c1 := m1*w*b, m1*w2*b2
		a2, c2 := m2*w*b, m2*w2*b2
		if a1 != c1 && a2 != c2 && (a1 < c1) != (a2 < c2) {
			orderFlips++
		}
	}
	if epochMiss == 0 {
		t.Error("epoch-multiplied keys matched the patch loop everywhere — lazy epoch may be exact after all; revisit views.go")
	}
	if reassocMiss == 0 {
		t.Error("re-associated keys matched the patch loop everywhere — factored base may be exact after all; revisit views.go")
	}
	if orderFlips == 0 {
		t.Error("no order flips among near-tied keys — the ResortByTNew rationale may be stale")
	}
	t.Logf("witnesses in %d trials: epoch %d, reassociation %d, order flips %d",
		trials, epochMiss, reassocMiss, orderFlips)
}
