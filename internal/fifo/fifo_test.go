package fifo

import (
	"math/rand"
	"testing"
)

// TestOrderAndBound checks FIFO order against a slice model under a
// random push/pop mix, and that the backing array never exceeds
// max(minCap, 2 × the peak number of queued items).
func TestOrderAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var model []int
	peak, next := 0, 0
	for step := 0; step < 200000; step++ {
		// Drift the live count up and down through several sizes, never
		// draining fully for long stretches (the case that grew the old
		// rewind-on-drain slices without bound).
		pushBias := 0.5 + 0.45*float64((step/5000)%3-1)
		if len(model) == 0 || rng.Float64() < pushBias {
			q.Push(next)
			model = append(model, next)
			next++
		} else {
			got := q.Pop()
			if got != model[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
			}
			model = model[1:]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
		}
		peak = max(peak, len(model))
		if q.Peak() != peak {
			t.Fatalf("step %d: Peak = %d, want %d", step, q.Peak(), peak)
		}
		if q.Cap() > max(minCap, 2*peak) {
			t.Fatalf("step %d: Cap = %d for peak %d", step, q.Cap(), peak)
		}
	}
}

// TestSteadyStateNeverGrows is the pattern of a link's delivery FIFO: a
// few items always in flight, never fully drained.
func TestSteadyStateNeverGrows(t *testing.T) {
	var q Queue[[]byte]
	for i := 0; i < 3; i++ {
		q.Push(nil)
	}
	for i := 0; i < 100000; i++ {
		q.Push(nil)
		q.Pop()
	}
	if q.Cap() != minCap {
		t.Fatalf("Cap = %d after a steady state of 3-4 live items, want %d", q.Cap(), minCap)
	}
}

func TestPopReleasesReference(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	q.Push(v)
	q.Pop()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still references a popped item", i)
		}
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop of an empty queue did not panic")
		}
	}()
	var q Queue[int]
	q.Pop()
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue[*int]
	v := new(int)
	for i := 0; i < 4; i++ {
		q.Push(v)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(v)
		q.Pop()
	}
}
