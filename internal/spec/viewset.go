package spec

import (
	"fmt"
	"slices"
	"sort"
)

// ViewSet is the incrementally maintained candidate state of one job's
// current phase — the structure that lets a launch attempt cost
// O(running + log tasks) instead of rebuilding and rescanning every
// incomplete task (the pre-incremental hot path's O(tasks) per attempt).
//
// It holds one TaskView per task of the phase (dense, indexed by task
// index) plus three orderings the policies select from:
//
//   - running: indices of tasks with at least one executing copy,
//     ascending by index — the scan order the reference Pick sees, so
//     first-wins tie-breaks match exactly;
//   - unsched: indices of incomplete tasks with no copy, ascending by
//     index — FIFO launch order for the approximation-oblivious baselines;
//   - order: every incomplete task sorted by (TNew, index) — SJF and LJF
//     extremes, the median t_new, and the error-bound earliest set all
//     read from it without scanning.
//
// The (TNew, index) ordering is cheap to keep alive because a job's TNew
// values only move together: in estimator mode TNew_i = median × work_i ×
// bias_i, so an estimator update rescales every key by the same positive
// factor and the order is (modulo float rounding, which ResortByTNew
// repairs) invariant; in oracle mode a task's key changes only when its
// predrawn duration factor is consumed by a launch, which already dirties
// the task.
//
// The scheduler owns maintenance: structural transitions (NoteLaunched /
// NoteIdle / Complete) are applied eagerly when the event happens, and
// view values are refreshed lazily — Update rewrites a dirtied task's view
// just before the next launch attempt. Query methods are only valid after
// that refresh, when every stored view is current; PickIncremental
// implementations must not mutate the set.
type ViewSet struct {
	views   []TaskView
	running []int
	unsched []int
	order   []int
	sealed  bool

	// Reusable scratch for EarliestCandidates; the returned slices alias
	// these buffers and are valid until the next call.
	runEff []effIdx
	runIn  []int
	runPos []int
}

// Reset clears the set for a fresh phase of n tasks, keeping capacity.
func (vs *ViewSet) Reset(n int) {
	if cap(vs.views) < n {
		vs.views = make([]TaskView, n)
	}
	vs.views = vs.views[:n]
	for i := range vs.views {
		vs.views[i] = TaskView{}
	}
	vs.running = vs.running[:0]
	vs.unsched = vs.unsched[:0]
	vs.order = vs.order[:0]
	vs.sealed = false
}

// Init records one task's initial view during the build phase. Views must
// be supplied in ascending task-index order (the membership lists inherit
// it); call Seal once every incomplete task is in.
func (vs *ViewSet) Init(v TaskView) {
	if vs.sealed {
		panic("spec: ViewSet.Init after Seal")
	}
	vs.views[v.Index] = v
	vs.order = append(vs.order, v.Index)
	if v.Running {
		vs.running = append(vs.running, v.Index)
	} else {
		vs.unsched = append(vs.unsched, v.Index)
	}
}

// Seal finishes the build: the (TNew, index) order is sorted once, after
// which all maintenance is incremental.
func (vs *ViewSet) Seal() {
	vs.sortOrder()
	vs.sealed = true
}

// Len returns the number of incomplete tasks in the set.
func (vs *ViewSet) Len() int { return len(vs.order) }

// At returns the current view of task i. Only meaningful for incomplete
// tasks of the phase.
func (vs *ViewSet) At(i int) TaskView { return vs.views[i] }

// Running returns the indices of tasks with at least one executing copy,
// ascending. Callers must not mutate or retain the slice across updates.
func (vs *ViewSet) Running() []int { return vs.running }

// FirstUnsched returns the lowest-index unscheduled task — the FIFO
// launch the approximation-oblivious baselines start from.
func (vs *ViewSet) FirstUnsched() (int, bool) {
	if len(vs.unsched) == 0 {
		return 0, false
	}
	return vs.unsched[0], true
}

// MinTNewUnsched returns the unscheduled task with the smallest
// (TNew, index) — SJF's pick. It walks the order head past running
// entries, so the cost is O(running) worst case, O(1) typically.
func (vs *ViewSet) MinTNewUnsched() (int, bool) {
	for _, i := range vs.order {
		if !vs.views[i].Running {
			return i, true
		}
	}
	return 0, false
}

// MedianTNew returns the median TNew across every incomplete task, with
// the reference implementation's exact averaging for even counts — the
// quantity GRASS's static switching rule and the oracle's exact two-wave
// test need. Zero when the set is empty.
func (vs *ViewSet) MedianTNew() float64 {
	n := len(vs.order)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vs.views[vs.order[n/2]].TNew
	}
	return (vs.views[vs.order[n/2-1]].TNew + vs.views[vs.order[n/2]].TNew) / 2
}

// Update rewrites task i's view after the scheduler refreshed it. If the
// TNew key moved (an oracle redraw), the (TNew, index) order is repaired.
// Structural membership is NOT touched here — NoteLaunched/NoteIdle/
// Complete handle transitions when they happen.
func (vs *ViewSet) Update(v TaskView) {
	old := vs.views[v.Index]
	if old.TNew == v.TNew {
		vs.views[v.Index] = v
		return
	}
	// Remove under the old key before storing the new view: the order's
	// binary searches compare through the stored views, so the entry must
	// still carry the key it is filed under while it is being located.
	p := vs.orderPos(old.TNew, v.Index)
	vs.order = append(vs.order[:p], vs.order[p+1:]...)
	vs.views[v.Index] = v
	q := vs.orderInsertPos(v.TNew, v.Index)
	vs.order = append(vs.order, 0)
	copy(vs.order[q+1:], vs.order[q:])
	vs.order[q] = v.Index
}

// NoteLaunched moves task i from the unscheduled to the running list —
// call when its first copy launches. The stored view stays stale until
// the next Update.
func (vs *ViewSet) NoteLaunched(i int) {
	vs.unsched = removeSortedInt(vs.unsched, i, "unsched")
	vs.running = insertSortedInt(vs.running, i)
}

// NoteIdle moves task i back to the unscheduled list — call when
// preemption kills its last copy.
func (vs *ViewSet) NoteIdle(i int) {
	vs.running = removeSortedInt(vs.running, i, "running")
	vs.unsched = insertSortedInt(vs.unsched, i)
}

// Complete removes task i from the set entirely.
func (vs *ViewSet) Complete(i int) {
	if p := sort.SearchInts(vs.running, i); p < len(vs.running) && vs.running[p] == i {
		vs.running = append(vs.running[:p], vs.running[p+1:]...)
	} else {
		vs.unsched = removeSortedInt(vs.unsched, i, "unsched")
	}
	p := vs.orderPos(vs.views[i].TNew, i)
	vs.order = append(vs.order[:p], vs.order[p+1:]...)
}

// SetTNewBulk rewrites task i's TNew without repairing the order — the
// estimator-update path, where every key rescales by the same factor and
// the caller finishes with one ResortByTNew instead of n relocations.
func (vs *ViewSet) SetTNewBulk(i int, tnew float64) {
	vs.views[i].TNew = tnew
}

// ResortByTNew revalidates the (TNew, index) order after a bulk TNew
// rewrite. Uniform rescaling preserves the order except for float-rounding
// flips, so this is an O(n) sortedness check with an O(n log n) repair
// that in practice never runs.
func (vs *ViewSet) ResortByTNew() {
	for k := 1; k < len(vs.order); k++ {
		if vs.orderKeyLess(vs.order[k], vs.order[k-1]) {
			slices.SortFunc(vs.order, func(a, b int) int {
				if vs.orderKeyLess(a, b) {
					return -1
				}
				return 1
			})
			return
		}
	}
}

// AppendCompact appends the views of every incomplete task in ascending
// index order — the exact slice a from-scratch rebuild would produce. The
// scheduler hands it to Pick-only policies, and the differential tests
// compare it against such a rebuild.
func (vs *ViewSet) AppendCompact(dst []TaskView) []TaskView {
	ri, ui := 0, 0
	for ri < len(vs.running) || ui < len(vs.unsched) {
		switch {
		case ri >= len(vs.running):
			dst = append(dst, vs.views[vs.unsched[ui]])
			ui++
		case ui >= len(vs.unsched):
			dst = append(dst, vs.views[vs.running[ri]])
			ri++
		case vs.running[ri] < vs.unsched[ui]:
			dst = append(dst, vs.views[vs.running[ri]])
			ri++
		default:
			dst = append(dst, vs.views[vs.unsched[ui]])
			ui++
		}
	}
	return dst
}

// EarliestCandidates identifies, among the `need` incomplete tasks with
// the smallest (effDuration, index) — exactly the reference earliestSet's
// quickselect order — the running members and the unscheduled fresh-launch
// candidate:
//
//   - runIn holds the running tasks inside the set, ascending by index
//     (the reference selection's scan order);
//   - fresh is the unscheduled member with the largest TNew, ties broken
//     to the smallest index (LJF's pick inside the set), or -1 when the
//     set contains no unscheduled task.
//
// need >= Len() degenerates to the whole incomplete set. The returned
// slice aliases ViewSet scratch and is valid until the next call. Cost is
// O(r·(log r + log n)) for r running tasks — r is bounded by the job's
// slot share, so this replaces the reference's O(n) quickselect over
// every incomplete task.
func (vs *ViewSet) EarliestCandidates(need int) ([]int, int) {
	if need <= 0 {
		return vs.runIn[:0], -1
	}
	n := len(vs.order)
	if need >= n {
		return vs.running, vs.maxTNewUnschedBefore(n)
	}
	// Running tasks sorted by (effDuration, index) — the merge order
	// against the unscheduled tasks, whose effDuration is their TNew.
	re := vs.runEff[:0]
	for _, i := range vs.running {
		re = append(re, effIdx{eff: effDuration(vs.views[i]), idx: i})
	}
	vs.runEff = re
	insertionSortEff(re)
	// A running entry joins the earliest set when the unscheduled entries
	// below it plus the running entries below it still leave room: the
	// m-th running entry (0-based) is in iff unschedBelow + m < need.
	// The left side grows strictly with m, so membership is a prefix of
	// re and the boundary binary-searches.
	j := sort.Search(len(re), func(m int) bool {
		return m >= need || vs.countUnschedLess(re[m].eff, re[m].idx)+m >= need
	})
	runIn := vs.runIn[:0]
	for _, e := range re[:j] {
		runIn = insertSortedInt(runIn, e.idx)
	}
	vs.runIn = runIn
	kU := need - j
	if kU == 0 {
		return runIn, -1
	}
	// The set's unscheduled members are the first kU entries of the
	// unscheduled subsequence of order; locate the kU-th by offsetting
	// past the running entries interleaved before it.
	rp := vs.runPos[:0]
	for _, i := range vs.running {
		rp = append(rp, vs.orderPos(vs.views[i].TNew, i))
	}
	vs.runPos = rp
	sort.Ints(rp)
	pos := kU - 1
	for _, p := range rp {
		if p <= pos {
			pos++
		} else {
			break
		}
	}
	return runIn, vs.maxTNewUnschedBefore(pos + 1)
}

// maxTNewUnschedBefore returns the unscheduled task with the largest TNew
// among the first lim entries of order, ties to the smallest index, or -1.
// The last unscheduled entry in the window has the maximum TNew; the
// backward walk over its equal-TNew block recovers the smallest index —
// the first-wins tie-break of the reference's ascending-index scan.
func (vs *ViewSet) maxTNewUnschedBefore(lim int) int {
	p := lim - 1
	for p >= 0 && vs.views[vs.order[p]].Running {
		p--
	}
	if p < 0 {
		return -1
	}
	fresh := vs.order[p]
	maxT := vs.views[fresh].TNew
	for q := p - 1; q >= 0; q-- {
		i := vs.order[q]
		if vs.views[i].TNew != maxT {
			break
		}
		if !vs.views[i].Running {
			fresh = i
		}
	}
	return fresh
}

// countUnschedLess counts unscheduled tasks whose (TNew, index) key is
// strictly below (eff, idx): total incomplete tasks below the key (one
// binary search on order) minus the running tasks below it (an O(r) scan).
func (vs *ViewSet) countUnschedLess(eff float64, idx int) int {
	total := vs.orderInsertPos(eff, idx)
	for _, i := range vs.running {
		v := vs.views[i]
		if v.TNew < eff || (v.TNew == eff && i < idx) {
			total--
		}
	}
	return total
}

// orderKeyLess orders incomplete tasks by (TNew, index) — a total order,
// since indices are unique.
func (vs *ViewSet) orderKeyLess(a, b int) bool {
	va, vb := vs.views[a].TNew, vs.views[b].TNew
	if va != vb {
		return va < vb
	}
	return a < b
}

// orderInsertPos returns the position the key (tnew, idx) sorts to.
func (vs *ViewSet) orderInsertPos(tnew float64, idx int) int {
	return sort.Search(len(vs.order), func(p int) bool {
		i := vs.order[p]
		v := vs.views[i].TNew
		if v != tnew {
			return v >= tnew
		}
		return i >= idx
	})
}

// orderPos returns the position of task idx, whose stored TNew is tnew.
// A miss means the order diverged from the views — every later selection
// would be silently wrong — so it panics like the estimator's mirror.
func (vs *ViewSet) orderPos(tnew float64, idx int) int {
	p := vs.orderInsertPos(tnew, idx)
	if p >= len(vs.order) || vs.order[p] != idx {
		panic(fmt.Sprintf("spec: ViewSet order diverged: task %d (tnew %v) not at its key", idx, tnew))
	}
	return p
}

func (vs *ViewSet) sortOrder() {
	slices.SortFunc(vs.order, func(a, b int) int {
		if vs.orderKeyLess(a, b) {
			return -1
		}
		return 1
	})
}

// insertionSortEff sorts an (eff, idx) slice ascending: insertion sort
// with no allocation for the typical small running set, the library sort
// once a job holds enough slots for O(r²) swaps to bite.
func insertionSortEff(xs []effIdx) {
	if len(xs) > 24 {
		slices.SortFunc(xs, func(a, b effIdx) int {
			if a.eff != b.eff {
				if a.eff < b.eff {
					return -1
				}
				return 1
			}
			return a.idx - b.idx
		})
		return
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0; j-- {
			a, b := xs[j], xs[j-1]
			if a.eff > b.eff || (a.eff == b.eff && a.idx > b.idx) {
				break
			}
			xs[j], xs[j-1] = b, a
		}
	}
}

func insertSortedInt(xs []int, v int) []int {
	p := sort.SearchInts(xs, v)
	xs = append(xs, 0)
	copy(xs[p+1:], xs[p:])
	xs[p] = v
	return xs
}

func removeSortedInt(xs []int, v int, what string) []int {
	p := sort.SearchInts(xs, v)
	if p >= len(xs) || xs[p] != v {
		panic(fmt.Sprintf("spec: ViewSet %s list diverged: task %d not present", what, v))
	}
	return append(xs[:p], xs[p+1:]...)
}
