package main

import (
	"math"
	"time"

	"github.com/onelab/umtslab/internal/testbed"
)

// setCounts sets the per-layer work counts: the mean over the
// workload's distinct specs of each reference run's program counters.
// They repeat exactly for a given seed.
func setCounts(rep *report, refs []*outcome) {
	sum := map[string]float64{}
	var dialS float64
	for _, r := range refs {
		for k, v := range r.counts {
			sum[k] += float64(v)
		}
		dialS += meanSetup(r.rep).Seconds()
	}
	n := float64(len(refs))
	avg := func(k string) float64 { return sum[k] / n }
	rep.set("sim.events", avg("sim/events_fired"))
	rep.set("sim.events_cancelled", avg("sim/events_cancelled"))
	rep.set("sim.wheel_cascades", avg("sim/wheel_cascades"))
	rep.set("ppp.frames", avg("ppp/tx_frames")+avg("ppp/rx_frames"))
	rep.set("ppp.fcs_errors", avg("ppp/fcs_errors"))
	rep.set("umts.ul_chunks", avg("umts/ul/tx_chunks"))
	rep.set("umts.ul_bytes", avg("umts/ul/tx_bytes"))
	rep.set("umts.rab_upgrades", avg("umts/rab_upgrades"))
	rep.set("umts.pop.drop_ratio", ratio(sum["umts/pop/dropped_bytes"], sum["umts/pop/offered_bytes"]))
	rep.set("netsim.queue_drops", avg("netsim/queue_drops"))
	rep.set("fault.injected", avg("fault/injected"))
	rep.set("itg.packets_sent", avg("itg/packets_sent"))
	rep.set("itg.delivery_ratio", ratio(sum["itg/packets_received"], sum["itg/packets_sent"]))
	rep.set("bufpool.hit_ratio", 1-ratio(sum["bufpool/misses"], sum["bufpool/gets"]))
	rep.set("shard.windows", avg("shard/windows"))
	rep.set("shard.cross_msgs", avg("shard/msgs_out"))
	rep.set("dialup.sim_s", dialS/n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// meanSetup is the mean modeled dial-up time of a run's terminals.
func meanSetup(rep *testbed.Report) time.Duration {
	var sum time.Duration
	n := 0
	for _, r := range rep.Results {
		sum += r.SetupTime
		n++
	}
	if mc := rep.MultiCell; mc != nil {
		for _, f := range mc.Flows {
			sum += f.SetupTime
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// setProfile sets every layer's CPU share and the CPU time per
// operation of dial-up and of testbed build work.
func setProfile(rep *report, prof *cpuProfile, ops int) (dialMS, buildMS float64) {
	for l, s := range prof.shares() {
		rep.set(l+".cpu_share", s)
	}
	n := float64(max(ops, 1))
	rep.detail["profile_cpu_s"] = prof.total.Seconds()
	rep.detail["profile_stacks"] = len(prof.samples)
	return ms(prof.timeWhere(isDialup)) / n, ms(prof.timeWhere(isBuild)) / n
}

// zeroControl sets the control-plane metrics of a workload that does not
// use the service.
func zeroControl(rep *report) {
	for _, m := range []string{
		"control.submit_ms.p50", "control.result_ms.p50", "control.scrape_ms.p50",
		"control.result_bytes", "control.refused", "control.retained_bytes_per_job",
	} {
		rep.set(m, 0)
	}
}

// tracedBatch is --trace 1 for a batch workload: an untraced phase for
// the overhead baseline, then traced operations under a CPU profile,
// then the layer kernels and the model's error against the paper.
func tracedBatch(o *options, rep *report, bs []*batchSpec, budget time.Duration) error {
	fleet := o.workload == "fleet-4cell"
	untraced := timedLoop(rep, bs, budget*2/5, false, nil)

	tr := newTracer()
	var logs *cellLogs
	prof, err := startProfile(o)
	if err != nil {
		return err
	}
	traced := timedLoop(rep, bs, budget*3/5, true, tracedOp(tr, fleet, &logs))
	cpu, err := prof.stop(o)
	if err != nil {
		return err
	}
	dialMS, buildMS := setProfile(rep, cpu, traced.ops)
	if err := checkDeferred(rep, traced); err != nil {
		return err
	}

	refs := make([]*outcome, len(bs))
	done := map[string]*outcome{}
	for i, b := range bs {
		refs[i] = b.ref
		done[b.spec] = b.ref
	}
	setCounts(rep, refs)
	rep.set("runtime.gc_cycles", float64(untraced.gcCycles)/float64(max(untraced.ops, 1)))
	rep.set("trace.overhead", ratio(median(traced.runCal), median(untraced.runCal)))
	rep.detail["untraced_run_ms"] = timing(untraced.runMS)
	rep.detail["traced_run_ms"] = timing(traced.runMS)

	var stall []float64
	for _, out := range traced.outs {
		if mc := out.rep.MultiCell; mc != nil {
			stall = append(stall, float64(out.snap.Counter("shard/stall_wall_ns"))/
				(float64(len(mc.Snapshots))*float64(out.runWall.Nanoseconds())))
		}
	}
	rep.set("shard.stall_share", mean(stall))

	payload := 90
	if o.workload == "paper-saturate" {
		payload = 1024
	}
	if fleet {
		// The fleet's flows are 30 s VoIP calls; a traced cell of one
		// gives the stack and decoder inputs, outside the profile.
		rep.set("testbed.build_ms", buildMS)
		rep.set("dialup.host_ms", dialMS)
		rep.set("stack.send_ns_per_pkt", 0)
		rep.set("stack.recv_ns_per_pkt", 0)
		sp := &testbed.Spec{Seed: runSeed(o.seed, o.workload, 0), Duration: testbed.Duration(30 * time.Second)}
		if _, logs, err = tracedCell(newTracer(), 0, sp); err != nil {
			return err
		}
	} else {
		setCellSpans(rep, tr, traced.ops)
		rep.detail["dialup_profile_ms"] = dialMS
		rep.detail["build_profile_ms"] = buildMS
	}
	zeroControl(rep)
	if err := runKernels(o, rep, payload, logs); err != nil {
		return err
	}
	if err := setModel(o, rep, done); err != nil {
		return err
	}
	path, err := tr.write(o)
	if err != nil {
		return err
	}
	rep.detail["spans_file"] = path
	return nil
}

// setCellSpans sets the span-derived metrics of traced paper cells.
func setCellSpans(rep *report, tr *tracer, ops int) {
	n := float64(max(ops, 1))
	build, _ := tr.totals("testbed.build")
	dial, _ := tr.totals("dialup")
	rep.set("testbed.build_ms", ms(build)/n)
	rep.set("dialup.host_ms", ms(dial)/n)
	send, sn := tr.totals("stack.send")
	recv, rn := tr.totals("stack.recv")
	rep.set("stack.send_ns_per_pkt", ratio(float64(send.Nanoseconds()), float64(sn)))
	rep.set("stack.recv_ns_per_pkt", ratio(float64(recv.Nanoseconds()), float64(rn)))
	phases := map[string]float64{}
	for _, p := range []string{"testbed.build", "dialup", "data", "itg.decode", "teardown", "run"} {
		d, _ := tr.totals(p)
		phases[p] = ms(d) / n
	}
	rep.detail["span_ms_per_op"] = phases
}

// Paper §3.2 reference values.
const (
	paperVoIPKbps    = 72
	paperSatPreKbps  = 150
	paperSatPostKbps = 400
)

// setModel reports the model's error against the paper's §3.2 values,
// over the paper workloads' specs for this seed: the VoIP cell's mean
// bitrate against 72 kbps, and the saturating cell's mean bitrate before
// 45 s and after 55 s against ~150 and ~400 kbps, with the time of its
// bearer-upgrade knee (the first 2 s of windows averaging above the
// 275 kbps midpoint). Runs already made, keyed by spec, are reused.
func setModel(o *options, rep *report, done map[string]*outcome) error {
	get := func(spec string) (*testbed.ExperimentResult, error) {
		out, ok := done[spec]
		if !ok {
			var err error
			if out, err = runSpec(spec); err != nil {
				return nil, err
			}
		}
		return out.rep.Results[0], nil
	}
	var voipErr, preErr, postErr, knee []float64
	for _, spec := range paperSpecs(&options{workload: "paper-voip", seed: o.seed}) {
		r, err := get(spec)
		if err != nil {
			return err
		}
		voipErr = append(voipErr, math.Abs(r.Decoded.AvgBitrateKbps-paperVoIPKbps))
	}
	for _, spec := range paperSpecs(&options{workload: "paper-saturate", seed: o.seed}) {
		r, err := get(spec)
		if err != nil {
			return err
		}
		br := r.Decoded.BitrateSeries()
		preErr = append(preErr, math.Abs(br.Before(45*time.Second).Mean()-paperSatPreKbps))
		postErr = append(postErr, math.Abs(br.After(55*time.Second).Mean()-paperSatPostKbps))
		k := 0.0
		for i := 0; i+10 <= len(br); i++ {
			if br[i:i+10].Mean() > (paperSatPreKbps+paperSatPostKbps)/2 {
				k = br[i].T.Seconds()
				break
			}
		}
		knee = append(knee, k)
	}
	rep.set("model.voip_kbps_err", mean(voipErr))
	rep.set("model.sat_kbps_pre_err", mean(preErr))
	rep.set("model.sat_kbps_post_err", mean(postErr))
	rep.set("model.sat_knee_s", mean(knee))
	return nil
}
