package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// endToEnd are the metrics of an untraced run (--trace 0), in the order
// BENCHMARK.json lists them.
var endToEnd = []string{
	"setup_s",
	"run_ms.p50", "run_ms.p90",
	"job_ms.p50", "job_ms.p90",
	"first_window_ms.p50",
	"jobs_per_s",
	"sim_s_per_wall_s", "terminal_sim_s_per_wall_s",
	"allocs_per_run", "alloc_mb_per_run",
	"live_heap_mb.max",
}

// perLayer are the metrics of a traced run (--trace 1), grouped by the
// module they describe.
var perLayer = []string{
	"sim.events", "sim.events_cancelled", "sim.wheel_cascades", "sim.sched_fire_ns", "sim.cpu_share",
	"ppp.frames", "ppp.fcs_errors", "ppp.encode_MBps", "ppp.deframe_MBps", "ppp.allocs_per_frame", "ppp.cpu_share",
	"umts.ul_chunks", "umts.ul_bytes", "umts.rab_upgrades", "umts.pop.drop_ratio", "umts.cpu_share",
	"stack.send_ns_per_pkt", "stack.recv_ns_per_pkt", "netsim.queue_drops", "netsim.marshal_ns",
	"vserver.cpu_share", "vnet.cpu_share", "netsim.cpu_share", "netfilter.cpu_share", "iproute.cpu_share",
	"dialup.host_ms", "dialup.sim_s", "fault.injected",
	"dialer.cpu_share", "modem.cpu_share", "serial.cpu_share", "vsys.cpu_share", "core.cpu_share", "fault.cpu_share",
	"itg.packets_sent", "itg.delivery_ratio", "itg.decode_ms", "itg.stream_decode_ms", "itg.cpu_share", "stats.cpu_share",
	"bufpool.hit_ratio", "runtime.gc_cycles", "runtime.cpu_share",
	"shard.windows", "shard.cross_msgs", "shard.stall_share", "shard.cpu_share",
	"testbed.build_ms", "testbed.cpu_share",
	"control.submit_ms.p50", "control.result_ms.p50", "control.scrape_ms.p50", "control.result_bytes",
	"control.refused", "control.retained_bytes_per_job", "control.cpu_share",
	"other.cpu_share", "trace.overhead",
	"model.voip_kbps_err", "model.sat_kbps_pre_err", "model.sat_kbps_post_err", "model.sat_knee_s",
}

// units maps every metric to its unit.
var units = map[string]string{
	"setup_s":                   "s",
	"run_ms.p50":                "ms",
	"run_ms.p90":                "ms",
	"job_ms.p50":                "ms",
	"job_ms.p90":                "ms",
	"first_window_ms.p50":       "ms",
	"jobs_per_s":                "1/s",
	"sim_s_per_wall_s":          "s/s",
	"terminal_sim_s_per_wall_s": "s/s",
	"allocs_per_run":            "count",
	"alloc_mb_per_run":          "MB",
	"live_heap_mb.max":          "MB",

	"sim.events":                     "count",
	"sim.events_cancelled":           "count",
	"sim.wheel_cascades":             "count",
	"sim.sched_fire_ns":              "ns",
	"ppp.frames":                     "count",
	"ppp.fcs_errors":                 "count",
	"ppp.encode_MBps":                "MB/s",
	"ppp.deframe_MBps":               "MB/s",
	"ppp.allocs_per_frame":           "count",
	"umts.ul_chunks":                 "count",
	"umts.ul_bytes":                  "B",
	"umts.rab_upgrades":              "count",
	"umts.pop.drop_ratio":            "ratio",
	"stack.send_ns_per_pkt":          "ns",
	"stack.recv_ns_per_pkt":          "ns",
	"netsim.queue_drops":             "count",
	"netsim.marshal_ns":              "ns",
	"dialup.host_ms":                 "ms",
	"dialup.sim_s":                   "sim_s",
	"fault.injected":                 "count",
	"itg.packets_sent":               "count",
	"itg.delivery_ratio":             "ratio",
	"itg.decode_ms":                  "ms",
	"itg.stream_decode_ms":           "ms",
	"bufpool.hit_ratio":              "ratio",
	"runtime.gc_cycles":              "count",
	"shard.windows":                  "count",
	"shard.cross_msgs":               "count",
	"shard.stall_share":              "ratio",
	"testbed.build_ms":               "ms",
	"control.submit_ms.p50":          "ms",
	"control.result_ms.p50":          "ms",
	"control.scrape_ms.p50":          "ms",
	"control.result_bytes":           "B",
	"control.refused":                "count",
	"control.retained_bytes_per_job": "B",
	"trace.overhead":                 "ratio",
	"model.voip_kbps_err":            "kbps",
	"model.sat_kbps_pre_err":         "kbps",
	"model.sat_kbps_post_err":        "kbps",
	"model.sat_knee_s":               "sim_s",
}

func init() {
	for _, l := range cpuLayers {
		units[l+".cpu_share"] = "share"
	}
}

// cpuLayers are the layers CPU samples are charged to: the module's
// packages by their last path element, the benchmark's own frames and
// the three leftover packages as "other", and stacks with no module
// frame as "runtime".
var cpuLayers = []string{
	"sim", "ppp", "umts", "vserver", "vnet", "netsim", "netfilter", "iproute",
	"dialer", "modem", "serial", "vsys", "core", "fault", "itg", "stats",
	"runtime", "shard", "testbed", "control", "other",
}

// quantile is the linearly interpolated q-quantile of xs (0 when xs is
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// median is quantile 0.5.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timing summarizes a latency sample for the detail record.
func timing(xs []float64) map[string]any {
	p90 := quantile(xs, 0.9)
	return map[string]any{
		"n": len(xs), "p50": median(xs), "p90": p90,
		"beyond_p90": beyond(xs, p90), "min": quantile(xs, 0), "max": quantile(xs, 1),
	}
}

// heapSampler tracks the maximum of the runtime's live-heap metric
// (/gc/heap/live:bytes, updated at the end of every GC cycle) while it
// runs, or until it is frozen. It also keeps the maximum of each lap
// over the GC cycles that ended in it.
type heapSampler struct {
	stop   chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	max    uint64
	frozen bool
	lapGC  uint64 // GC cycles completed when the lap started
	lapMax uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	_, h.lapGC, _ = readLiveHeap()
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v, gc, ok := readLiveHeap()
	if !ok {
		return
	}
	h.mu.Lock()
	if !h.frozen {
		h.max = max(h.max, v)
	}
	if gc > h.lapGC {
		h.lapMax = max(h.lapMax, v)
	}
	h.mu.Unlock()
}

// readLiveHeap returns the live heap left by the last GC cycle and the
// number of cycles completed.
func readLiveHeap() (live, cycles uint64, ok bool) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		return 0, 0, false
	}
	return s[0].Value.Uint64(), s[1].Value.Uint64(), true
}

// lap takes a last sample and returns the peak in MB, without the
// calibration kernel's map, over the GC cycles that ended since the
// previous lap; ok is false if none did. The next lap starts.
func (h *heapSampler) lap() (mb float64, ok bool) {
	h.sample()
	_, gc, _ := readLiveHeap()
	h.mu.Lock()
	defer h.mu.Unlock()
	mb, ok = float64(h.lapMax)/1e6-calibHeapMB, h.lapMax > 0
	h.lapGC, h.lapMax = gc, 0
	return mb, ok
}

// freeze takes a last sample and keeps the peak from then on.
func (h *heapSampler) freeze() {
	h.sample()
	h.mu.Lock()
	h.frozen = true
	h.mu.Unlock()
}

// finish stops the sampler and returns the peak in MB, without the
// calibration kernel's map.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.max)/1e6 - calibHeapMB
}
