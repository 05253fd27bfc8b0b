package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/onelab/umtslab/internal/control"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/testbed"
)

// countNames are the program counters recorded per operation. Each must
// repeat exactly for a given spec: a drift is a determinism bug.
// netsim/queue_drops is the sum of every link's queue_drops counter.
var countNames = []string{
	"sim/events_fired", "sim/events_cancelled", "sim/wheel_cascades",
	"ppp/tx_frames", "ppp/rx_frames", "ppp/fcs_errors",
	"umts/ul/tx_chunks", "umts/ul/tx_bytes", "umts/rab_upgrades",
	"umts/pop/offered_bytes", "umts/pop/dropped_bytes",
	"itg/packets_sent", "itg/packets_received", "itg/echoes_received",
	"bufpool/gets", "bufpool/misses",
	"shard/windows", "shard/msgs_out",
	"fault/injected", "netsim/queue_drops",
}

// outcome is one checked operation: a spec parsed, built, run and
// encoded through the public API.
type outcome struct {
	enc     []byte
	sha     string
	rep     *testbed.Report
	snap    metrics.Snapshot
	counts  map[string]int64
	runWall time.Duration // Scenario.Run
	jobWall time.Duration // spec bytes in to checked result out
}

// runSpec is one operation of a batch workload.
func runSpec(spec string) (*outcome, error) {
	t0 := time.Now()
	sp, err := testbed.ParseSpec([]byte(spec))
	if err != nil {
		return nil, err
	}
	sc, err := sp.Scenario()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	rep, err := sc.Run()
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	enc, err := control.EncodeReport(rep)
	if err != nil {
		return nil, err
	}
	out := &outcome{enc: enc, sha: digest(enc), rep: rep, runWall: t2.Sub(t1)}
	out.snap = snapshotOf(rep)
	out.counts = countsOf(out.snap)
	out.jobWall = time.Since(t0)
	return out, nil
}

// snapshotOf is the run's simulation-wide metrics snapshot.
func snapshotOf(rep *testbed.Report) metrics.Snapshot {
	if mc := rep.MultiCell; mc != nil {
		return metrics.MergeSnapshots(mc.Snapshots...)
	}
	var snaps []metrics.Snapshot
	for _, r := range rep.Results {
		snaps = append(snaps, r.Metrics)
	}
	return metrics.MergeSnapshots(snaps...)
}

func countsOf(s metrics.Snapshot) map[string]int64 {
	c := make(map[string]int64, len(countNames))
	for _, n := range countNames {
		c[n] = s.Counter(n)
	}
	c["netsim/queue_drops"] = s.CounterSum("netsim/link/", "/queue_drops")
	return c
}

// horizon is the simulated span of a run in seconds and the number of
// terminals simulated over it. A multi-cell run spans flow start, flow
// and drain (the fleet artifact's definition) over every active, idle
// and modeled terminal; a single cell spans dial-up, flow and its 10 s
// drain for one terminal.
func horizon(rep *testbed.Report, spec *testbed.Spec) (simS, terminals float64) {
	if mc := rep.MultiCell; mc != nil {
		o := mc.Opts
		simS = (o.FlowStart + o.Duration + o.Drain).Seconds()
		return simS, float64(o.Cells * (o.Terminals + o.IdleTerminals + o.Population))
	}
	for _, r := range rep.Results {
		simS += (r.SetupTime + time.Duration(spec.Duration) + 10*time.Second).Seconds()
		terminals = 1
	}
	return simS, terminals
}

// batchSpec is one distinct spec of a batch workload with its
// reference run and the digest and counts each operation must match.
type batchSpec struct {
	spec      string
	ref       *outcome
	want      reference
	simS      float64
	terminals float64
}

func paperSpecs(o *options) []string {
	wl := "voip"
	if o.workload == "paper-saturate" {
		wl = "cbr1m"
	}
	var specs []string
	for i := 0; i < 3; i++ {
		specs = append(specs, fmt.Sprintf(`{"seed":%d,"workload":%q,"duration":"120s"}`, runSeed(o.seed, o.workload, i), wl))
	}
	return specs
}

func fleetSpecs(o *options) []string {
	var specs []string
	for i := 0; i < 2; i++ {
		specs = append(specs, fmt.Sprintf(`{"seed":%d,"cells":4,"terminals":2,"idle_terminals":24000,"population":1000,`+
			`"shard_policy":"dynamic","duration":"30s","analysis":{"mode":"stream-only"}}`, runSeed(o.seed, o.workload, i)))
	}
	return specs
}

// prepare runs the set-up of a batch workload: `setups` cold set-ups of
// the first spec (each parses, builds, runs and encodes it; their
// median, each calibrated, is setup_s), then one reference run of every
// other spec. All of it is outside the timed region.
func prepare(o *options, rep *report, specs []string, setups int) ([]*batchSpec, error) {
	var setupS, setupCal []float64
	bs := make([]*batchSpec, len(specs))
	for i := 0; i < setups; i++ {
		runtime.GC()
		slow := calibrate() / calibRefMS
		t0 := time.Now()
		out, err := runSpec(specs[0])
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		setupCal = append(setupCal, setupS[i]/slow)
		if bs[0] != nil && (out.sha != bs[0].ref.sha || !sameCounts(out.counts, bs[0].ref.counts)) {
			rep.broken("set-up %d of spec 0 differs from set-up 0", i)
		}
		bs[0] = &batchSpec{spec: specs[0], ref: out}
	}
	for i := 1; i < len(specs); i++ {
		out, err := runSpec(specs[i])
		if err != nil {
			return nil, fmt.Errorf("reference %d: %w", i, err)
		}
		bs[i] = &batchSpec{spec: specs[i], ref: out}
	}
	refs := make([]reference, len(bs))
	for i, b := range bs {
		sp, _ := testbed.ParseSpec([]byte(b.spec))
		b.simS, b.terminals = horizon(b.ref.rep, sp)
		refs[i] = reference{Spec: b.spec, SHA256: b.ref.sha, Counts: b.ref.counts}
	}
	rep.detail["setup_raw_s"] = setupS
	rep.set("setup_s", median(setupCal))
	for i, w := range expectedRefs(o, rep, refs) {
		bs[i].want = w
	}
	return bs, nil
}

// check compares an operation with its spec's expected digest (only when
// the operation encoded its result) and work counts.
func check(rep *report, b *batchSpec, out *outcome) bool {
	if out.enc != nil && out.sha != b.want.SHA256 {
		rep.fail("digest %s, expected %s (%s)", out.sha, b.want.SHA256, b.spec)
		return false
	}
	if !sameCounts(out.counts, b.want.Counts) {
		rep.fail("work counts %v, expected %v (%s)", out.counts, b.want.Counts, b.spec)
		return false
	}
	return true
}

// loopStats is what a timed region of operations measured, in host
// time; slow is the region's calibrated slowdown (see calib.go). runCal,
// jobCal and calWall hold each operation's times divided by the
// slowdown of the calibration just before it.
type loopStats struct {
	ops            int
	runMS, jobMS   []float64
	runCal, jobCal []float64
	calWall        float64 // seconds, failed operations included
	slow           float64
	wall           time.Duration // without the calibrations
	simS, termSimS float64
	mallocs, bytes uint64
	gcCycles       uint32
	heapMB         float64
	heapPeaks      []float64  // per operation
	outs           []*outcome // kept only when asked, with their specs
	specOf         []*batchSpec
}

// timedLoop cycles through the specs until budget has elapsed (and at
// least once through every spec), checking each result. Each operation
// follows a calibration. op overrides the operation (the traced run);
// nil means runSpec.
func timedLoop(rep *report, bs []*batchSpec, budget time.Duration, keep bool, op func(*batchSpec) (*outcome, error)) *loopStats {
	if op == nil {
		op = func(b *batchSpec) (*outcome, error) { return runSpec(b.spec) }
	}
	st := &loopStats{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := startHeapSampler()
	start := time.Now()
	cal := &calibrator{}
	var calibrating time.Duration
	for i := 0; time.Since(start) < budget || i < len(bs); i++ {
		b := bs[i%len(bs)]
		t := time.Now()
		// Start every operation on a collected heap, so its GC cycles
		// fall at the same points each time and its live-heap peak
		// repeats; otherwise they drift in phase with the operations.
		runtime.GC()
		slow := cal.sample() / calibRefMS
		calibrating += time.Since(t)
		rep.result.Attempted++
		t = time.Now()
		out, err := op(b)
		if err != nil {
			rep.fail("%s: %v", b.spec, err)
		}
		ok := err == nil && check(rep, b, out)
		st.calWall += time.Since(t).Seconds() / slow
		if mb, ended := heap.lap(); ended {
			st.heapPeaks = append(st.heapPeaks, mb)
		}
		if !ok {
			continue
		}
		st.ops++
		st.runMS = append(st.runMS, ms(out.runWall))
		st.jobMS = append(st.jobMS, ms(out.jobWall))
		st.runCal = append(st.runCal, ms(out.runWall)/slow)
		st.jobCal = append(st.jobCal, ms(out.jobWall)/slow)
		st.simS += b.simS
		st.termSimS += b.simS * b.terminals
		if keep {
			st.outs = append(st.outs, out)
			st.specOf = append(st.specOf, b)
		}
	}
	st.wall = time.Since(start) - calibrating
	st.slow = cal.slowdown()
	st.heapMB = heap.finish()
	if len(st.heapPeaks) > 0 {
		st.heapMB = mean(st.heapPeaks)
	}
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.bytes = m1.TotalAlloc - m0.TotalAlloc
	st.gcCycles = m1.NumGC - m0.NumGC
	return st
}

// reportEndToEnd sets the end-to-end metrics of a batch workload's timed
// region, calibrated. A batch operation hands its whole result over at
// once, so its time to first result (first_window_ms) is its job time.
func reportEndToEnd(rep *report, st *loopStats) {
	n := float64(max(st.ops, 1))
	rep.set("run_ms.p50", median(st.runCal))
	rep.set("run_ms.p90", quantile(st.runCal, 0.9))
	rep.set("job_ms.p50", median(st.jobCal))
	rep.set("job_ms.p90", quantile(st.jobCal, 0.9))
	rep.set("first_window_ms.p50", median(st.jobCal))
	runS := mean(st.runCal) * float64(len(st.runCal)) / 1e3
	rep.set("jobs_per_s", ratio(float64(st.ops), st.calWall))
	rep.set("sim_s_per_wall_s", ratio(st.simS, runS))
	rep.set("terminal_sim_s_per_wall_s", ratio(st.termSimS, runS))
	rep.set("allocs_per_run", float64(st.mallocs)/n)
	rep.set("alloc_mb_per_run", float64(st.bytes)/n/1e6)
	rep.set("live_heap_mb.max", st.heapMB)
	rep.detail["raw_run_ms"] = timing(st.runMS)
	rep.detail["raw_job_ms"] = timing(st.jobMS)
	rep.detail["raw_jobs_per_s"] = float64(st.ops) / st.wall.Seconds()
	rep.detail["slowdown"] = st.slow
	rep.detail["timed_wall_s"] = st.wall.Seconds()
	rep.detail["gc_cycles"] = st.gcCycles
}

// runPaper measures a single paper cell (paper-voip, paper-saturate) on
// one CPU. The cell's simulation is single-threaded; with a second CPU
// only the collector runs beside it, and a shared host that takes that
// CPU away stalls the cell: on a shared 2-CPU host its calibrated p90
// then spread 26% from run to run, against 4% on one CPU.
func runPaper(o *options, rep *report) error {
	runtime.GOMAXPROCS(1)
	return runBatch(o, rep, paperSpecs(o), 9)
}

// runFleet measures the 4-cell, 100,008-terminal fleet on one CPU. Its
// five shards synchronize at every window, so on a shared host any CPU
// the host takes away stalls them all: with two CPUs its run time
// spread 25% from run to run, with one 4%. The shard engine does the
// same work either way; its parallel speedup is not what this workload
// measures.
func runFleet(o *options, rep *report) error {
	runtime.GOMAXPROCS(1)
	return runBatch(o, rep, fleetSpecs(o), 9)
}

func runBatch(o *options, rep *report, specs []string, setups int) error {
	if o.trace {
		setups = 1
	}
	bs, err := prepare(o, rep, specs, setups)
	if err != nil {
		return err
	}
	budget := time.Duration(o.seconds) * time.Second
	if !o.trace {
		reportEndToEnd(rep, timedLoop(rep, bs, budget, false, nil))
		return nil
	}
	return tracedBatch(o, rep, bs, budget)
}
