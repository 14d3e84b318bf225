package simevent

import "container/heap"

// newHeapEngine returns an engine on the reference heap queue.
func newHeapEngine() *Engine { return &Engine{q: &heapQueue{}} }

// queueImpls names the engines the harnesses compare, reference first.
var queueImpls = []struct {
	name string
	new  func() *Engine
}{
	{"heap", newHeapEngine},
	{"calendar", New},
}

// heapQueue is the binary-heap queue — the original engine, kept as the
// reference implementation the differential and lifetime harnesses check
// the calendar queue against. O(log n) per push/pop.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(ev *Event) { heap.Push(&q.h, ev) }

func (q *heapQueue) remove(ev *Event) { heap.Remove(&q.h, ev.index) }

func (q *heapQueue) len() int { return len(q.h) }

// drainMin pops the heap while the top shares the minimum (Time, class);
// heap pops among equal keys come out in seq order, so the batch is FIFO.
func (q *heapQueue) drainMin(dst []*Event) []*Event {
	top := q.h[0]
	t, c := top.Time, top.class
	for len(q.h) > 0 && q.h[0].Time == t && q.h[0].class == c {
		dst = append(dst, heap.Pop(&q.h).(*Event))
	}
	return dst
}

// eventHeap orders by (Time, class, seq).
type eventHeap []*Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventBefore(h[i], h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
