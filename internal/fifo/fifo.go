// Package fifo provides the one first-in first-out queue the packet
// path keeps its waiting and scheduled items in: link and radio
// transmit queues, the FIFOs of already-scheduled deliveries, and the
// GGSN's core-transit rings.
//
// A Queue is a ring buffer. Its backing array doubles only when full and
// never shrinks, so it stays within twice the peak number of queued items
// (and at least minCap) however long the run. A slice that only rewinds
// once fully drained, by contrast, grows for as long as the queue is
// never empty at a push.
package fifo

// minCap is the backing length of a queue's first allocation.
const minCap = 8

// Queue is a FIFO of T. The zero value is an empty queue, ready to use.
// It is not safe for concurrent use.
type Queue[T any] struct {
	buf  []T // length zero or a power of two
	head int // index of the oldest item
	n    int // number of queued items
	peak int // high-water mark of n
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the length of the backing array, which is at most
// max(minCap, 2 × Peak()).
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Peak returns the largest number of items ever queued at once.
func (q *Queue[T]) Peak() int { return q.peak }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
	q.peak = max(q.peak, q.n)
}

// Pop removes and returns the oldest item. It panics on an empty queue:
// every caller pops exactly what it pushed.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("fifo: Pop of an empty queue")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for the collector
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the backing array, unwrapping the ring to start at 0.
func (q *Queue[T]) grow() {
	buf := make([]T, max(2*len(q.buf), minCap))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
