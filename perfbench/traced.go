package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/onelab/umtslab/internal/control"
	"github.com/onelab/umtslab/internal/core"
	"github.com/onelab/umtslab/internal/itg"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/testbed"
	"github.com/onelab/umtslab/internal/vsys"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Trace; Parent names the enclosing span. Per-packet
// calls are folded into one span per operation with Count calls and
// their summed duration.
type span struct {
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Count   int    `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh operation identifier.
func (t *tracer) newTrace() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a span that started at start and ends now.
func (t *tracer) add(trace int, name, parent string, start time.Time) time.Duration {
	d := time.Since(start)
	t.addDur(trace, name, parent, start, d, 0)
	return d
}

func (t *tracer) addDur(trace int, name, parent string, start time.Time, d time.Duration, count int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Trace: trace, Name: name, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), DurNS: d.Nanoseconds(), Count: count,
	})
}

// totals sums the duration and call count of every span named name.
func (t *tracer) totals(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.DurNS)
			n += max(s.Count, 1)
		}
	}
	return d, n
}

// durations lists the durations in ms of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, float64(s.DurNS)/1e6)
		}
	}
	return xs
}

// write stores the spans as JSON under the output directory.
func (t *tracer) write(o *options) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	path := filepath.Join(o.outDir, "spans-"+o.workload+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// Ports of the paper cell, as Testbed.RunExperiment uses them.
const (
	senderPort   = 5000
	receiverPort = 9000
)

// cellLogs are a traced cell's flow logs, rebased to the flow start.
type cellLogs struct {
	sent, recv, echo *itg.Log
}

// tracedCell runs one single-cell UMTS experiment the way the
// testbed's RunExperiment does, but from the benchmark through the
// public calls, with a span around each phase and the sender's send
// function and the receiver's port handler wrapped to time every
// packet. Its canonical result must be byte-identical to Scenario.Run
// of the same spec.
func tracedCell(tr *tracer, id int, spec *testbed.Spec) (*testbed.Report, *cellLogs, error) {
	if spec.Cells > 0 || spec.Path != "" || spec.Analysis != nil || spec.FaultProfile != "" || spec.Reps > 1 {
		return nil, nil, fmt.Errorf("traced cell supports a plain single-cell spec only")
	}
	wl, err := testbed.ParseWorkload(spec.Workload)
	if err != nil {
		return nil, nil, err
	}
	dur := time.Duration(spec.Duration)
	if dur == 0 {
		dur = 120 * time.Second
	}
	window := time.Duration(spec.Window)
	if window == 0 {
		window = 200 * time.Millisecond
	}
	opStart := time.Now()

	t := time.Now()
	tb, err := testbed.New(testbed.Options{Seed: testbed.RepSeed(spec.Seed, 0)})
	if err != nil {
		return nil, nil, err
	}
	tr.add(id, "testbed.build", "run", t)

	t = time.Now()
	res := &testbed.ExperimentResult{Spec: testbed.ExperimentSpec{
		Path: testbed.PathUMTS, Workload: wl, Duration: dur, Window: window,
	}}
	sender, fe, err := tb.NewUMTSSlice("unina_umts")
	if err != nil {
		return nil, nil, err
	}
	recvSlice, err := tb.InriaHost.CreateSlice("unina_probe")
	if err != nil {
		return nil, nil, err
	}
	t0 := tb.Loop.Now()
	if _, err := tb.StartUMTS(fe); err != nil {
		return nil, nil, err
	}
	res.SetupTime = tb.Loop.Now() - t0
	if r, err := tb.Invoke(func(cb func(vsys.Result)) error {
		return fe.AddDest(testbed.InriaEthAddr.String(), cb)
	}); err != nil || !r.Ok() {
		return nil, nil, fmt.Errorf("add destination failed: %v %v", err, r.Errs)
	}
	tr.add(id, "dialup", "run", t)

	t = time.Now()
	var sendN, recvN int
	var sendD, recvD time.Duration
	receiver := itg.NewReceiver(tb.Loop, func(pkt *netsim.Packet) error {
		return recvSlice.Send(pkt)
	})
	if err := recvSlice.Bind(netsim.ProtoUDP, receiverPort, func(pkt *netsim.Packet) {
		s := time.Now()
		receiver.Handle(pkt)
		recvD += time.Since(s)
		recvN++
	}); err != nil {
		return nil, nil, err
	}
	var flow itg.FlowSpec
	switch wl {
	case testbed.WorkloadVoIP:
		flow = itg.VoIPG711(1, testbed.InriaEthAddr, senderPort, receiverPort, dur)
	case testbed.WorkloadCBR1M:
		flow = itg.CBR1Mbps(1, testbed.InriaEthAddr, senderPort, receiverPort, dur)
	default:
		return nil, nil, fmt.Errorf("traced cell: unsupported workload %v", wl)
	}
	snd := itg.NewSender(tb.Loop, fmt.Sprintf("%v/%v", testbed.PathUMTS, wl), flow,
		func(pkt *netsim.Packet) error {
			s := time.Now()
			err := sender.Send(pkt)
			sendD += time.Since(s)
			sendN++
			return err
		})
	if err := sender.Bind(netsim.ProtoUDP, senderPort, snd.HandleEcho); err != nil {
		return nil, nil, err
	}
	start := tb.Loop.Now()
	snd.Start()
	tb.Loop.RunUntil(start + dur + 10*time.Second)
	res.SenderErrors = snd.SendErrors
	tr.add(id, "data", "run", t)
	tr.addDur(id, "stack.send", "data", t, sendD, sendN)
	tr.addDur(id, "stack.recv", "data", t, recvD, recvN)

	t = time.Now()
	logs := &cellLogs{
		sent: snd.SentLog.Rebase(start),
		recv: receiver.RecvLog.Rebase(start),
		echo: snd.EchoLog.Rebase(start),
	}
	res.Decoded = itg.Decode(logs.sent, logs.recv, logs.echo, window)
	tr.add(id, "itg.decode", "run", t)

	t = time.Now()
	res.BearerEvents = tb.Terminal.SessionEvents()
	if r, err := tb.Invoke(func(cb func(vsys.Result)) error {
		return fe.Status(func(st core.Status, rr vsys.Result) { res.Status = st; cb(rr) })
	}); err != nil || !r.Ok() {
		return nil, nil, fmt.Errorf("status failed: %v", err)
	}
	if r, err := tb.Invoke(fe.Stop); err != nil || !r.Ok() {
		return nil, nil, fmt.Errorf("stop failed: %v %v", err, r.Errs)
	}
	fe.Close()
	res.Metrics = tb.Loop.Metrics().Snapshot()
	res.Outages = tb.Faults.Windows()
	tr.add(id, "teardown", "run", t)
	tr.add(id, "run", "", opStart)
	return &testbed.Report{Results: []*testbed.ExperimentResult{res}}, logs, nil
}

// tracedOp is one traced operation of a batch workload: the paper cell
// rebuilt from public calls, or for the fleet the spec and Scenario.Run
// calls, each in a span. The result is encoded and checked after the
// profile stops (see checkDeferred), so the profile holds only the
// simulation's own work.
func tracedOp(tr *tracer, fleet bool, last **cellLogs) func(*batchSpec) (*outcome, error) {
	return func(b *batchSpec) (*outcome, error) {
		t0 := time.Now()
		id := tr.newTrace()
		sp, err := testbed.ParseSpec([]byte(b.spec))
		if err != nil {
			return nil, err
		}
		var rep *testbed.Report
		var runWall time.Duration
		if fleet {
			sc, err := sp.Scenario()
			if err != nil {
				return nil, err
			}
			tr.add(id, "spec", "", t0)
			t := time.Now()
			rep, err = sc.Run()
			runWall = tr.add(id, "run", "", t)
			if err != nil {
				return nil, err
			}
		} else {
			tr.add(id, "spec", "", t0)
			t := time.Now()
			var logs *cellLogs
			rep, logs, err = tracedCell(tr, id, sp)
			runWall = time.Since(t)
			if err != nil {
				return nil, err
			}
			*last = logs
		}
		out := &outcome{rep: rep, runWall: runWall}
		out.snap = snapshotOf(rep)
		out.counts = countsOf(out.snap)
		out.jobWall = time.Since(t0)
		return out, nil
	}
}

// checkDeferred encodes the traced operations' results and checks each
// against its spec's reference: a traced run must be byte-identical to
// an untraced one.
func checkDeferred(rep *report, st *loopStats) error {
	for i, out := range st.outs {
		enc, err := control.EncodeReport(out.rep)
		if err != nil {
			return err
		}
		b := st.specOf[i]
		if got := digest(enc); got != b.want.SHA256 {
			rep.fail("traced run digest %s, expected %s (%s)", got, b.want.SHA256, b.spec)
		}
	}
	return nil
}
