package sim

import (
	"container/heap"
	"math/bits"

	"github.com/onelab/umtslab/internal/metrics"
)

// Timer-wheel scheduler: the default eventQueue backend.
//
// The wheel has numLevels levels of numSlots slots each. A tick is
// 2^tickShift nanoseconds of virtual time (1.024 µs — well under the
// UMTS TTI of 10 ms, so radio-grade timers land on level 0 or 1).
// Level L slot i holds the events whose tick has i in bit-field
// [L*levelBits, (L+1)*levelBits) and agrees with the wheel's current
// tick on all higher bits — absolute block indexing rather than
// per-level countdown, which makes insertion a few shifts and compares.
// The four levels together address 2^32 ticks (~73 virtual minutes);
// events beyond that horizon wait in an overflow heap and are migrated
// into the wheel a whole epoch at a time.
//
// Determinism: firing order must be exactly the (at, pri, seq) total
// order the reference heap produces, byte-for-byte. The wheel
// guarantees it structurally — events only ever fire from the ready
// heap, which orders by (at, pri, seq):
//
//   - every event in the wheel or overflow has tick > curTick, and a
//     tick strictly greater means at strictly greater (at values within
//     one tick differ by < 2^tickShift ns, across ticks by >= that), so
//     nothing outside ready can be due before anything inside it;
//   - a level-0 slot holds exactly one tick's events, and draining it
//     into ready re-sorts same-tick events whose (at, pri, seq) order
//     differs from insertion order;
//   - new events that land at or before curTick (Post, or scheduling
//     after RunUntil peeked past its horizon) go straight into ready,
//     where the heap ordering slots them correctly among the due.
//
// Cancellation is immediate and O(1) on wheel levels (doubly-linked
// slot lists) and O(log n) in the ready/overflow heaps (index-tracked
// heap.Remove), so the wheel never carries dead entries.
const (
	tickShift = 10 // 1 tick = 1024 ns
	levelBits = 8
	numSlots  = 1 << levelBits
	slotMask  = numSlots - 1
	numLevels = 4
	wheelBits = levelBits * numLevels // ticks addressable by the wheel
)

type wheelQueue struct {
	loop    *Loop
	curTick uint64
	count   int // live events across ready, wheel and overflow

	head [numLevels][numSlots]*event
	tail [numLevels][numSlots]*event
	occ  [numLevels][numSlots / 64]uint64 // occupancy bitmaps

	ready    eventHeap // due events (tick <= curTick), the only firing source
	overflow eventHeap // events beyond the wheel horizon (later epoch)

	mCascades *metrics.Counter
}

func newWheelQueue(l *Loop, reg *metrics.Registry) *wheelQueue {
	return &wheelQueue{loop: l, mCascades: reg.Counter("sim/wheel_cascades")}
}

func (q *wheelQueue) push(ev *event) {
	tick := uint64(ev.at) >> tickShift
	switch {
	case tick <= q.curTick:
		ev.where = evReady
		heap.Push(&q.ready, ev)
	case tick>>wheelBits != q.curTick>>wheelBits:
		ev.where = evOverflow
		heap.Push(&q.overflow, ev)
	default:
		q.place(ev, tick)
	}
	q.count++
}

// place links ev into the lowest wheel level whose block contains both
// tick and curTick. Requires curTick < tick < end of current epoch.
func (q *wheelQueue) place(ev *event, tick uint64) {
	level := 0
	for tick>>(levelBits*uint(level+1)) != q.curTick>>(levelBits*uint(level+1)) {
		level++
	}
	slot := int(tick>>(levelBits*uint(level))) & slotMask
	ev.where = int8(level)
	ev.tick = tick
	ev.next = nil
	ev.prev = q.tail[level][slot]
	if ev.prev != nil {
		ev.prev.next = ev
	} else {
		q.head[level][slot] = ev
	}
	q.tail[level][slot] = ev
	q.occ[level][slot>>6] |= 1 << (slot & 63)
}

func (q *wheelQueue) pop() *event {
	q.advance()
	if len(q.ready) == 0 {
		return nil
	}
	ev := heap.Pop(&q.ready).(*event)
	q.count--
	return ev
}

func (q *wheelQueue) peek() *event {
	q.advance()
	if len(q.ready) == 0 {
		return nil
	}
	return q.ready[0]
}

func (q *wheelQueue) cancel(ev *event) {
	switch ev.where {
	case evReady:
		heap.Remove(&q.ready, ev.index)
	case evOverflow:
		heap.Remove(&q.overflow, ev.index)
	default:
		level := int(ev.where)
		slot := int(ev.tick>>(levelBits*uint(level))) & slotMask
		if ev.prev != nil {
			ev.prev.next = ev.next
		} else {
			q.head[level][slot] = ev.next
		}
		if ev.next != nil {
			ev.next.prev = ev.prev
		} else {
			q.tail[level][slot] = ev.prev
		}
		if q.head[level][slot] == nil {
			q.occ[level][slot>>6] &^= 1 << (slot & 63)
		}
	}
	q.count--
	q.loop.freeEvent(ev)
}

func (q *wheelQueue) len() int { return q.count }

// advance moves curTick forward until the ready heap holds the next due
// event (or the queue is empty). It never passes an occupied slot: each
// jump lands exactly on the next occupied slot's tick range, draining
// level-0 slots into ready and cascading higher-level slots down.
func (q *wheelQueue) advance() {
	for len(q.ready) == 0 {
		if q.count == 0 {
			return
		}
		if q.jumpLevel() {
			continue
		}
		// Wheel empty: migrate the next epoch out of overflow. The
		// nearest overflow event dictates which epoch; everything in
		// that epoch moves into the wheel so overflow stays strictly
		// beyond the horizon.
		if len(q.overflow) == 0 {
			return
		}
		epoch := uint64(q.overflow[0].at) >> tickShift >> wheelBits
		q.curTick = epoch << wheelBits
		for len(q.overflow) > 0 {
			ev := q.overflow[0]
			tick := uint64(ev.at) >> tickShift
			if tick>>wheelBits != epoch {
				break
			}
			heap.Pop(&q.overflow)
			q.reinsert(ev, tick)
		}
	}
}

// jumpLevel finds the lowest level with an occupied slot ahead of the
// current index, jumps curTick to that slot's base tick, and drains it.
// Returns false when the whole wheel is empty.
//
// Scanning low levels first is what makes the jump safe: a slot at
// level L only exists because its events differ from curTick in bit
// field L, and any event nearer in time would differ in a lower field —
// i.e. occupy a lower level — and be found first.
func (q *wheelQueue) jumpLevel() bool {
	for level := 0; level < numLevels; level++ {
		shift := levelBits * uint(level)
		curIdx := int(q.curTick>>shift) & slotMask
		slot := q.nextOccupied(level, curIdx+1)
		if slot < 0 {
			continue
		}
		// Jump to the base of the slot's tick range; the slot's events
		// all have ticks within [base, base + 2^shift).
		q.curTick = q.curTick>>(shift+levelBits)<<(shift+levelBits) | uint64(slot)<<shift
		ev := q.head[level][slot]
		q.head[level][slot] = nil
		q.tail[level][slot] = nil
		q.occ[level][slot>>6] &^= 1 << (slot & 63)
		if level > 0 {
			q.mCascades.Inc()
		}
		for ev != nil {
			next := ev.next
			ev.prev, ev.next = nil, nil
			q.reinsert(ev, ev.tick)
			ev = next
		}
		return true
	}
	return false
}

// reinsert routes an event already counted in q.count to ready or back
// into the wheel after curTick moved.
func (q *wheelQueue) reinsert(ev *event, tick uint64) {
	if tick <= q.curTick {
		ev.where = evReady
		heap.Push(&q.ready, ev)
		return
	}
	q.place(ev, tick)
}

// nextOccupied returns the smallest occupied slot index >= from at the
// given level, or -1.
func (q *wheelQueue) nextOccupied(level, from int) int {
	if from >= numSlots {
		return -1
	}
	w := from >> 6
	word := q.occ[level][w] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= numSlots/64 {
			return -1
		}
		word = q.occ[level][w]
	}
}
