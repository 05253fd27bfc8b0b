package sim

import (
	"container/heap"
	"time"
)

// event is a queue entry. seq breaks ties between events scheduled for
// the same instant, guaranteeing FIFO order and determinism regardless
// of which scheduler backs the loop.
//
// Events are recycled through the loop's freelist; gen is bumped on
// every free so stale Timer handles can detect reuse.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
	pri int8 // priority band at the same instant: priHead before priNormal
	gen uint32
	// where records which container currently holds the event: a wheel
	// level (0..numLevels-1) or one of the ev* sentinels below.
	where int8
	index int    // position within a heap-ordered container
	tick  uint64 // wheel tick (at >> tickShift); valid while on a wheel level
	prev  *event // slot-list links while on a wheel level
	next  *event // slot-list link, or freelist link while free
}

const (
	evReady    int8 = -1 // wheelQueue's due heap
	evOverflow int8 = -2 // wheelQueue's far-future heap
	evHeap     int8 = -3 // heapQueue's binary heap
	evFree     int8 = -4 // on the loop freelist
)

// Priority bands. Within one instant, head-band events (Loop.AtHead)
// fire before every normal-band event no matter which was inserted
// first; within a band, insertion order (seq) still breaks ties. The
// sharded engine schedules cross-shard deliveries in the head band so
// the delivery-vs-local interleaving at a shared nanosecond does not
// depend on when the coordinator flushed — a prerequisite for window
// policies with different flush points to stay byte-identical.
const (
	priHead   int8 = -1
	priNormal int8 = 0
)

// eventQueue is the scheduler backend contract. pop and peek return the
// next live event in (at, pri, seq) order; implementations discard (and
// free) cancelled entries internally, so callers never see dead events.
type eventQueue interface {
	push(ev *event)
	// pop removes and returns the next live event, or nil when empty.
	pop() *event
	// peek returns the next live event without removing it, or nil.
	peek() *event
	// cancel removes ev from the queue. The heap backend does this
	// lazily (the entry stays until popped or compacted); the wheel
	// unlinks and frees immediately.
	cancel(ev *event)
	// len reports queued entries. For the heap backend this includes
	// entries cancelled but not yet compacted away.
	len() int
}

// eventHeap is a binary min-heap over (at, pri, seq), shared by the heap
// scheduler and the wheel's ready/overflow sub-heaps. index fields are
// kept current so heap.Remove can cancel in O(log n).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].pri != h[j].pri {
		return h[i].pri < h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// heapQueue is the original binary-heap scheduler, kept as the
// reference implementation the timer wheel is differentially tested
// against (SchedulerHeap selects it).
//
// Cancellation is lazy: the entry stays in the heap (removing from the
// middle is O(log n) per removal and most timers never get cancelled),
// but the queue tracks how many dead entries it holds and rebuilds the
// heap once they outnumber the live ones — so workloads that cancel
// timers en masse (TCP RTOs, LCP keepalives) cannot grow the heap
// without bound.
type heapQueue struct {
	loop      *Loop
	h         eventHeap
	cancelled int // cancelled events still sitting in h
}

// compactMinLen is the heap size below which compaction is not worth
// the rebuild; small heaps self-clean as events pop.
const compactMinLen = 64

func (q *heapQueue) push(ev *event) {
	ev.where = evHeap
	heap.Push(&q.h, ev)
}

func (q *heapQueue) pop() *event {
	for q.h.Len() > 0 {
		ev := heap.Pop(&q.h).(*event)
		if ev.fn == nil { // cancelled
			if q.cancelled > 0 {
				q.cancelled--
			}
			q.loop.freeEvent(ev)
			continue
		}
		return ev
	}
	return nil
}

func (q *heapQueue) peek() *event {
	for q.h.Len() > 0 {
		ev := q.h[0]
		if ev.fn == nil { // cancelled; discard so peek sees a live head
			heap.Pop(&q.h)
			if q.cancelled > 0 {
				q.cancelled--
			}
			q.loop.freeEvent(ev)
			continue
		}
		return ev
	}
	return nil
}

func (q *heapQueue) cancel(ev *event) {
	ev.fn = nil
	q.cancelled++
	if q.cancelled > q.h.Len()/2 && q.h.Len() >= compactMinLen {
		q.compact()
	}
}

func (q *heapQueue) len() int { return q.h.Len() }

// compact rebuilds the event heap keeping only live events. O(n), run
// only when cancelled entries exceed half the queue, so the amortized
// cost per cancellation is O(1) and heap length stays within 2x the
// live event count.
func (q *heapQueue) compact() {
	live := q.h[:0]
	for _, ev := range q.h {
		if ev.fn != nil {
			live = append(live, ev)
		} else {
			q.loop.freeEvent(ev)
		}
	}
	// Zero the tail so dropped events are collectable.
	for i := len(live); i < len(q.h); i++ {
		q.h[i] = nil
	}
	q.h = live
	for i, ev := range q.h {
		ev.index = i
	}
	heap.Init(&q.h)
	q.cancelled = 0
	q.loop.mCompactions.Inc()
}
