package main

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Shared hosts drift in speed by 10-25% over seconds to minutes. To keep
// that drift out of the end-to-end timings, the benchmark times a
// calibration kernel before each operation and scales the run's host
// times to a host on which the kernel takes calibRefMS. The kernel uses
// only the standard library and allocates nothing once warm, so no
// change to the program can move it: a change that speeds the program
// up shows in full. The raw host times are kept in the detail record.

// calibRefMS is the reference duration of one calibration kernel (about
// its median on the 2-CPU machine the bounds were tuned on).
const calibRefMS = 3.5

var (
	calibMu   sync.Mutex
	calibKeys = make([]int, 1<<11)
	calibMap  map[int]int
	// calibHeapMB is the live heap the kernel's map holds; the
	// live-heap metric leaves it out.
	calibHeapMB float64
)

func init() {
	before := liveHeapBytes()
	calibMap = make(map[int]int, 1<<16)
	calibrate()
	calibHeapMB = float64(liveHeapBytes()-before) / 1e6
}

// liveHeapBytes is the live heap after a full collection.
func liveHeapBytes() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// calibrate times one run of the kernel in ms: random inserts into a
// map larger than the L2 cache, and sorts. On the tuning host its time
// tracked the paper cells' host time with a correlation of 0.99 across
// runs; smaller, cache-resident kernels and a plain hash table tracked
// it less well.
func calibrate() float64 {
	calibMu.Lock()
	defer calibMu.Unlock()
	t := time.Now()
	rng := rand.New(rand.NewSource(1))
	clear(calibMap)
	for r := 0; r < 10; r++ {
		for i := range calibKeys {
			k := rng.Intn(1 << 16)
			calibMap[k] += i
			calibKeys[i] = k
		}
		sort.Ints(calibKeys)
	}
	return ms(time.Since(t))
}

// calibrator collects the calibrations of one timed region.
type calibrator struct {
	mu      sync.Mutex
	samples []float64
}

// sample calibrates once and returns the kernel's time in ms; call it
// before each operation.
func (c *calibrator) sample() float64 {
	v := calibrate()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, v)
	return v
}

// slowdown is the host's slowdown against the reference over the
// region: the median calibration over calibRefMS. The region's times are
// divided by it and its rates multiplied.
func (c *calibrator) slowdown() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.samples) == 0 {
		return 1
	}
	return median(c.samples) / calibRefMS
}
