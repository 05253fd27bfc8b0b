package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/onelab/umtslab/internal/control"
	"github.com/onelab/umtslab/internal/testbed"
)

// serviceSpecs is the job mix of service-mix: for each of two derived
// seeds, a 120 s VoIP cell with live windows, the same cell under the
// carrier-drops fault profile with self-healing redial, and a 2-cell x
// 2-terminal sharded job. Job i of the mix is of kind i % mixKinds.
func serviceSpecs(o *options) []string {
	var specs []string
	for s := 0; s < 2; s++ {
		seed := runSeed(o.seed, o.workload, s)
		specs = append(specs,
			fmt.Sprintf(`{"seed":%d,"workload":"voip","duration":"120s","analysis":{"mode":"stream-only"}}`, seed),
			fmt.Sprintf(`{"seed":%d,"workload":"voip","duration":"120s","analysis":{"mode":"stream-only"},"fault_profile":"drops","self_heal":true}`, seed),
			fmt.Sprintf(`{"seed":%d,"cells":2,"terminals":2,"shard_policy":"dynamic","analysis":{"mode":"stream-only"}}`, seed),
		)
	}
	return specs
}

// mixKinds is the number of kinds of job in the service mix.
const mixKinds = 3

// service is the control plane under test, served over loopback HTTP.
type service struct {
	srv  *control.Server
	hs   *http.Server
	base string
	done chan error
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: control.NewServer(control.Config{}), done: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.base = "http://" + ln.Addr().String()
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections, drains the job queue and
// waits for the serving goroutine to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if err2 := s.srv.Shutdown(ctx); err == nil {
		err = err2
	}
	if err2 := <-s.done; err == nil && !errors.Is(err2, http.ErrServerClosed) {
		err = err2
	}
	return err
}

// client is one closed-loop user of the service on its own keep-alive
// connection.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer // nil when untraced
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, tr: tr, hc: &http.Client{Transport: &http.Transport{
		Proxy: nil, MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// span records a client call when tracing.
func (c *client) span(id int, name string, start time.Time) {
	if c.tr != nil {
		c.tr.add(id, name, "job", start)
	}
}

var errRefused = errors.New("job refused with 503")

// jobTiming is one job as its client saw it.
type jobTiming struct {
	job, run, first time.Duration
	resultBytes     int
}

// job submits spec, follows its SSE stream to the final event, fetches
// the result and checks its digest against want.
func (c *client) job(spec, want string) (*jobTiming, error) {
	id := 0
	if c.tr != nil {
		id = c.tr.newTrace()
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return nil, err
	}
	body, err := readAll(resp)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusServiceUnavailable:
		return nil, errRefused
	default:
		return nil, fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	var st control.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	accepted := time.Now()
	c.span(id, "submit", t0)

	jt := &jobTiming{}
	state, err := c.stream(st.ID, t0, jt)
	if err != nil {
		return nil, err
	}
	final := time.Now()
	c.span(id, "stream", accepted)
	if state != control.StateDone {
		return nil, fmt.Errorf("job %s ended %s", st.ID, state)
	}

	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return nil, err
	}
	result, err := readAll(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: %s: %s", resp.Status, result)
	}
	if got := digest(result); got != want {
		return nil, fmt.Errorf("job %s result digest %s, direct run %s", st.ID, got, want)
	}
	end := time.Now()
	c.span(id, "result", final)
	c.span(id, "job", t0)
	jt.job, jt.run, jt.resultBytes = end.Sub(t0), final.Sub(accepted), len(result)
	return jt, nil
}

// stream follows a job's SSE stream to its final event, noting when the
// first live window arrived, and returns the final state.
func (c *client) stream(id string, t0 time.Time, jt *jobTiming) (control.State, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("stream: %s", resp.Status)
	}
	r := bufio.NewReaderSize(resp.Body, 64<<10)
	event := ""
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("stream of %s ended without a final event: %w", id, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
			if event == "window" && jt.first == 0 {
				jt.first = time.Since(t0)
			}
		case strings.HasPrefix(line, "data: ") && event == "result":
			var fin struct {
				State control.State `json:"state"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &fin); err != nil {
				return "", err
			}
			io.Copy(io.Discard, r) // leave the connection reusable
			if jt.first == 0 {
				return "", fmt.Errorf("job %s streamed no live window", id)
			}
			return fin.State, nil
		}
	}
}

// scrape fetches /v1/metrics and checks it is a JSON document.
func (c *client) scrape() (time.Duration, error) {
	id := 0
	if c.tr != nil {
		id = c.tr.newTrace()
	}
	t0 := time.Now()
	resp, err := c.hc.Get(c.base + "/v1/metrics")
	if err != nil {
		return 0, err
	}
	body, err := readAll(resp)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		return 0, fmt.Errorf("metrics scrape: %s", resp.Status)
	}
	c.span(id, "scrape", t0)
	return time.Since(t0), nil
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// scrapeEvery is how many jobs a client runs between metrics scrapes.
const scrapeEvery = 4

// mixStats is what one closed-loop phase measured, in host time; slow
// is the phase's calibrated slowdown (see calib.go). jobCal and runCal
// hold each job's times divided by the slowdown of the calibration just
// before it; firstByKind holds the first-window times by job kind.
type mixStats struct {
	mu                    sync.Mutex
	jobMS, runMS, firstMS []float64
	jobCal, runCal        []float64
	firstByKind           [mixKinds][]float64
	scrapeMS              []float64
	slow                  float64
	jobs, refused         int
	resultBytes           int
	simS, termSimS        float64
	wall                  time.Duration
	mallocs, bytes        uint64
	gcCycles              uint32
	heapMB                float64
	heapJobs              int
}

// heapJobsPerSecond sets service-mix's live-heap window: the peak is
// taken while the service completes its first heapJobsPerSecond x
// --seconds timed jobs. The server keeps every finished job's result,
// so a peak over the whole region would follow host speed; over a fixed
// job count it follows the program's memory use.
const heapJobsPerSecond = 5

// runMix drives the service with one closed-loop client per CPU until
// budget has elapsed. Client c runs jobs c, c+n, c+2n, ... of the mix,
// which starts at offset off; it calibrates before each job. The
// live-heap peak covers the first heapJobs checked jobs, or the whole
// region if fewer complete.
func runMix(rep *report, svc *service, mix []*batchSpec, off int, budget time.Duration, heapJobs int, tr *tracer) *mixStats {
	n := runtime.NumCPU()
	st := &mixStats{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := startHeapSampler()
	start := time.Now()
	cal := &calibrator{}
	var wg sync.WaitGroup
	var repMu sync.Mutex
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(svc.base, tr)
			defer cl.close()
			for k := 0; time.Since(start) < budget || k == 0; k++ {
				i := (off + c + k*n) % len(mix)
				s := mix[i]
				repMu.Lock()
				rep.result.Attempted++
				repMu.Unlock()
				slow := cal.sample() / calibRefMS
				jt, err := cl.job(s.spec, s.want.SHA256)
				if err == nil && k%scrapeEvery == scrapeEvery-1 {
					var d time.Duration
					if d, err = cl.scrape(); err == nil {
						st.mu.Lock()
						st.scrapeMS = append(st.scrapeMS, ms(d))
						st.mu.Unlock()
					}
				}
				if err != nil {
					repMu.Lock()
					rep.fail("%s: %v", s.spec, err)
					repMu.Unlock()
					st.mu.Lock()
					if errors.Is(err, errRefused) {
						st.refused++
					}
					st.mu.Unlock()
					continue
				}
				st.mu.Lock()
				st.jobs++
				if st.jobs == heapJobs {
					heap.freeze()
					st.heapJobs = st.jobs
				}
				st.jobMS = append(st.jobMS, ms(jt.job))
				st.runMS = append(st.runMS, ms(jt.run))
				st.firstMS = append(st.firstMS, ms(jt.first))
				st.jobCal = append(st.jobCal, ms(jt.job)/slow)
				st.runCal = append(st.runCal, ms(jt.run)/slow)
				st.firstByKind[i%mixKinds] = append(st.firstByKind[i%mixKinds], ms(jt.first))
				st.resultBytes += jt.resultBytes
				st.simS += s.simS
				st.termSimS += s.simS * s.terminals
				st.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.slow = cal.slowdown()
	st.heapMB = heap.finish()
	if st.heapJobs == 0 {
		st.heapJobs = st.jobs
	}
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.bytes = m1.TotalAlloc - m0.TotalAlloc
	st.gcCycles = m1.NumGC - m0.NumGC
	return st
}

// runService measures the measurement service: set-up is a fresh
// server behind a loopback listener plus one warm-up job, and the timed
// region is the closed-loop job mix.
func runService(o *options, rep *report) error {
	specs := serviceSpecs(o)
	mix := make([]*batchSpec, len(specs))
	refs := make([]reference, len(specs))
	for i, spec := range specs {
		out, err := runSpec(spec)
		if err != nil {
			return fmt.Errorf("direct run of %s: %w", spec, err)
		}
		sp, _ := testbed.ParseSpec([]byte(spec))
		s := &batchSpec{spec: spec, ref: out}
		s.simS, s.terminals = horizon(out.rep, sp)
		mix[i] = s
		refs[i] = reference{Spec: spec, SHA256: out.sha, Counts: out.counts}
	}
	for i, w := range expectedRefs(o, rep, refs) {
		mix[i].want = w
	}
	off := int(runSeed(o.seed, o.workload, len(specs)) % int64(len(specs)))

	setups := 9
	if o.trace {
		setups = 1
	}
	var svc *service
	var setupS, setupCal []float64
	for i := 0; i < setups; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return err
			}
		}
		// Collect the stopped server before calibrating and timing, so
		// neither competes with its collection.
		runtime.GC()
		slow := calibrate() / calibRefMS
		t0 := time.Now()
		var err error
		if svc, err = startService(); err != nil {
			return err
		}
		cl := newClient(svc.base, nil)
		_, err = cl.job(mix[0].spec, mix[0].ref.sha) // the service must match a direct run
		cl.close()
		if err != nil {
			svc.stop()
			return fmt.Errorf("warm-up job: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		setupCal = append(setupCal, setupS[i]/slow)
	}
	rep.detail["setup_raw_s"] = setupS
	rep.set("setup_s", median(setupCal))
	rep.detail["clients"] = runtime.NumCPU()

	budget := time.Duration(o.seconds) * time.Second
	if !o.trace {
		st := runMix(rep, svc, mix, off, budget, heapJobsPerSecond*o.seconds, nil)
		if err := svc.stop(); err != nil {
			return err
		}
		n := float64(max(st.jobs, 1))
		slow := st.slow
		rep.set("run_ms.p50", median(st.runCal))
		rep.set("run_ms.p90", quantile(st.runCal, 0.9))
		rep.set("job_ms.p50", median(st.jobCal))
		rep.set("job_ms.p90", quantile(st.jobCal, 0.9))
		// The kinds' first windows differ by 2x, so the pooled median
		// falls between modes; the mean of the kinds' medians does not.
		// It is not calibrated: with every CPU running a simulation, most
		// of it is goroutines waiting out the scheduler's 10 ms time
		// slice to hand the window on, which is wall time. On a 2-CPU
		// host with GOMAXPROCS=4 its median fell from 26 to 7 ms;
		// calibrated, it followed the host's speed in reverse.
		var first float64
		for _, xs := range st.firstByKind {
			first += median(xs) / mixKinds
		}
		rep.set("first_window_ms.p50", first)
		rep.set("jobs_per_s", float64(st.jobs)/st.wall.Seconds()*slow)
		rep.set("sim_s_per_wall_s", st.simS/st.wall.Seconds()*slow)
		rep.set("terminal_sim_s_per_wall_s", st.termSimS/st.wall.Seconds()*slow)
		rep.set("allocs_per_run", float64(st.mallocs)/n)
		rep.set("alloc_mb_per_run", float64(st.bytes)/n/1e6)
		rep.set("live_heap_mb.max", st.heapMB)
		rep.detail["slowdown"] = slow
		rep.detail["raw_jobs_per_s"] = float64(st.jobs) / st.wall.Seconds()
		rep.detail["raw_run_ms"] = timing(st.runMS)
		rep.detail["raw_job_ms"] = timing(st.jobMS)
		rep.detail["raw_first_window_ms"] = timing(st.firstMS)
		rep.detail["scrape_ms"] = timing(st.scrapeMS)
		rep.detail["timed_wall_s"] = st.wall.Seconds()
		rep.detail["refused"] = st.refused
		rep.detail["heap_window_jobs"] = st.heapJobs
		return nil
	}
	return tracedService(o, rep, svc, mix, off, budget)
}

// tracedService is --trace 1 for the service: an untraced phase for the
// overhead baseline, a traced phase under a CPU profile with a span per
// client HTTP call, then the retained-bytes probe, the kernels and the
// model's error.
func tracedService(o *options, rep *report, svc *service, mix []*batchSpec, off int, budget time.Duration) error {
	untraced := runMix(rep, svc, mix, off, budget*2/5, 0, nil)
	tr := newTracer()
	prof, err := startProfile(o)
	if err != nil {
		svc.stop()
		return err
	}
	traced := runMix(rep, svc, mix, off, budget*3/5, 0, tr)
	cpu, err := prof.stop(o)
	if err != nil {
		svc.stop()
		return err
	}
	jobs := 1 + untraced.jobs + traced.jobs // with the warm-up job

	// Every finished job's result and snapshot stay in the server: the
	// live heap it frees on shutdown, per job, is what it retained.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := svc.stop(); err != nil {
		return err
	}
	svc = nil // the last reference: let the collector free the server
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := (float64(before.HeapAlloc) - float64(after.HeapAlloc)) / float64(max(jobs, 1))

	dialMS, buildMS := setProfile(rep, cpu, traced.jobs)
	refs := make([]*outcome, len(mix))
	var stall []float64
	for i, s := range mix {
		refs[i] = s.ref
		if mc := s.ref.rep.MultiCell; mc != nil {
			stall = append(stall, float64(s.ref.snap.Counter("shard/stall_wall_ns"))/
				(float64(len(mc.Snapshots))*float64(s.ref.runWall.Nanoseconds())))
		}
	}
	setCounts(rep, refs)
	rep.set("shard.stall_share", mean(stall))
	rep.set("runtime.gc_cycles", float64(untraced.gcCycles)/float64(max(untraced.jobs, 1)))
	rep.set("trace.overhead", ratio(median(traced.runCal), median(untraced.runCal)))
	rep.set("testbed.build_ms", buildMS)
	rep.set("dialup.host_ms", dialMS)
	rep.set("stack.send_ns_per_pkt", 0)
	rep.set("stack.recv_ns_per_pkt", 0)
	rep.set("control.submit_ms.p50", median(tr.durations("submit")))
	rep.set("control.result_ms.p50", median(tr.durations("result")))
	rep.set("control.scrape_ms.p50", median(tr.durations("scrape")))
	rep.set("control.result_bytes", ratio(float64(traced.resultBytes), float64(traced.jobs)))
	rep.set("control.refused", float64(untraced.refused+traced.refused))
	rep.set("control.retained_bytes_per_job", retained)
	rep.detail["untraced_run_ms"] = timing(untraced.runMS)
	rep.detail["traced_run_ms"] = timing(traced.runMS)
	rep.detail["jobs_retained"] = jobs

	// The mix's cells are 120 s VoIP calls; a traced cell of one gives
	// the decoder inputs.
	sp := &testbed.Spec{Seed: runSeed(o.seed, o.workload, 0), Duration: testbed.Duration(120 * time.Second)}
	_, logs, err := tracedCell(newTracer(), 0, sp)
	if err != nil {
		return err
	}
	if err := runKernels(o, rep, 90, logs); err != nil {
		return err
	}
	if err := setModel(o, rep, nil); err != nil {
		return err
	}
	path, err := tr.write(o)
	if err != nil {
		return err
	}
	rep.detail["spans_file"] = path
	return nil
}
