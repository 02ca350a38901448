package sim

import (
	"container/heap"

	"morpheus/internal/units"
)

// heapQueue is the binary-heap event queue the engine shipped with before
// the time wheel. It lives in tests only, as the reference implementation:
// the differential scheduler battery and FuzzEngineSchedule replay every
// script against it as the fire-order oracle, and the engine contract
// tests run on it alongside the wheel.
type heapQueue struct {
	h eventHeap
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq // FIFO among same-time events
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = int32(i)
	h[j].idx = int32(j)
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.idx = int32(len(*h))
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

func (q *heapQueue) len() int { return len(q.h) }

func (q *heapQueue) push(ev *Event) { heap.Push(&q.h, ev) }

func (q *heapQueue) popAtMost(limit units.Time) *Event {
	if len(q.h) == 0 || q.h[0].at > limit {
		return nil
	}
	return heap.Pop(&q.h).(*Event)
}

func (q *heapQueue) remove(ev *Event) bool {
	if ev.idx < 0 || int(ev.idx) >= len(q.h) || q.h[ev.idx] != ev {
		return false
	}
	heap.Remove(&q.h, int(ev.idx))
	return true
}

func (q *heapQueue) reset(recycle func(*Event)) {
	for i, ev := range q.h {
		q.h[i] = nil
		ev.idx = -1
		recycle(ev)
	}
	q.h = q.h[:0]
}

// newHeapEngine returns an engine backed by the reference heap instead of
// the production time wheel.
func newHeapEngine(clock *Clock) *Engine { return &Engine{clock: clock, q: &heapQueue{}} }
