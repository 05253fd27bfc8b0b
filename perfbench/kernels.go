package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/onelab/umtslab/internal/bufpool"
	"github.com/onelab/umtslab/internal/itg"
	"github.com/onelab/umtslab/internal/metrics"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/ppp"
	"github.com/onelab/umtslab/internal/sim"
	"github.com/onelab/umtslab/internal/testbed"
)

// kernelRounds is how many times each kernel is timed; the median
// round is reported.
const kernelRounds = 5

// packetOf is the flow's data packet as the sender builds it: the
// workload's payload size behind IPv4 and UDP headers.
func packetOf(payload int) *netsim.Packet {
	return &netsim.Packet{
		Src: netsim.MustAddr("10.133.7.2"), Dst: testbed.InriaEthAddr,
		Proto: netsim.ProtoUDP, TTL: 64, SrcPort: senderPort, DstPort: receiverPort,
		Payload: itg.EncodePayload(0x80, 1, 1, time.Second, payload),
	}
}

// pppKernel times HDLC framing (ppp.AppendFrame) and deframing
// (Deframer.Feed) of the workload's data frames: MB/s of PPP payload
// and heap allocations per frame over both.
func pppKernel(payload int) (encMBps, defMBps, allocs float64, err error) {
	ip := packetOf(payload).Marshal()
	frame := append([]byte{0x00, 0x21}, ip...) // PPP protocol field: IPv4
	const n = 20000
	var frames int
	d := &ppp.Deframer{Borrow: true, OnFrame: func([]byte) { frames++ }}
	var encS, defS []float64
	var m0, m1 runtime.MemStats
	var wire []byte
	runtime.ReadMemStats(&m0)
	for r := 0; r < kernelRounds; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			wire = ppp.AppendFrame(wire[:0], frame)
		}
		encS = append(encS, time.Since(t).Seconds())
		t = time.Now()
		for i := 0; i < n; i++ {
			if err := d.Feed(wire); err != nil {
				return 0, 0, 0, err
			}
		}
		defS = append(defS, time.Since(t).Seconds())
	}
	runtime.ReadMemStats(&m1)
	// A frame completes when the next one's opening flag arrives.
	if frames < kernelRounds*n-1 || d.FCSErrors != 0 {
		return 0, 0, 0, fmt.Errorf("ppp kernel: %d frames deframed of %d, %d FCS errors", frames, kernelRounds*n, d.FCSErrors)
	}
	mb := float64(n*len(frame)) / 1e6
	allocs = float64(m1.Mallocs-m0.Mallocs) / float64(2*kernelRounds*n)
	return mb / median(encS), mb / median(defS), allocs, nil
}

// marshalKernel times Packet.AppendMarshal + UnmarshalPooled of the
// workload's data packet, in ns per packet.
func marshalKernel(payload int) (float64, error) {
	pkt := packetOf(payload)
	pool := bufpool.New(metrics.NewRegistry())
	const n = 20000
	var buf []byte
	var rounds []float64
	for r := 0; r < kernelRounds; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			buf = pkt.AppendMarshal(buf[:0])
			p, err := netsim.UnmarshalPooled(buf, pool)
			if err != nil {
				return 0, err
			}
			if p.DstPort != receiverPort || len(p.Payload) != payload {
				return 0, fmt.Errorf("marshal kernel: packet did not round-trip")
			}
			pool.Put(p.Payload)
		}
		rounds = append(rounds, float64(time.Since(t).Nanoseconds())/n)
	}
	return median(rounds), nil
}

// schedKernel times sim.Loop.After + RunUntil over batches of events
// with delays spread over one 50 ms horizon (a few TTIs and packet
// intervals), in ns per scheduled and fired event.
func schedKernel(seed int64) (float64, error) {
	const batch = 4096
	const batches = 20
	rng := rand.New(rand.NewSource(seed))
	delays := make([]time.Duration, batch)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
	}
	fired := 0
	fn := func() { fired++ }
	var rounds []float64
	for r := 0; r < kernelRounds; r++ {
		loop := sim.NewLoop(seed)
		fired = 0
		t := time.Now()
		for b := 0; b < batches; b++ {
			for _, d := range delays {
				loop.After(d, fn)
			}
			loop.RunUntil(loop.Now() + 50*time.Millisecond)
		}
		rounds = append(rounds, float64(time.Since(t).Nanoseconds())/(batch*batches))
		if fired != batch*batches {
			return 0, fmt.Errorf("sched kernel: %d events fired of %d", fired, batch*batches)
		}
	}
	return median(rounds), nil
}

// decodeKernel times the batch decoder (itg.Decode) and the streaming
// decoder (itg.DecodeStream) over the same flow logs, in ms per decode.
func decodeKernel(l *cellLogs) (batchMS, streamMS float64, err error) {
	window := 200 * time.Millisecond
	var b, s []float64
	for r := 0; r < kernelRounds; r++ {
		t := time.Now()
		rb := itg.Decode(l.sent, l.recv, l.echo, window)
		b = append(b, ms(time.Since(t)))
		t = time.Now()
		rs := itg.DecodeStream(l.sent, l.recv, l.echo, window)
		s = append(s, ms(time.Since(t)))
		if rb.Sent != rs.Sent || rb.Received != rs.Received || rb.Lost != rs.Lost {
			return 0, 0, fmt.Errorf("decode kernel: batch and stream decoders disagree on totals")
		}
	}
	return median(b), median(s), nil
}

// runKernels sets the layer-kernel metrics on inputs shaped like the
// workload: its data payload size and a traced cell's logs.
func runKernels(o *options, rep *report, payload int, logs *cellLogs) error {
	enc, def, allocs, err := pppKernel(payload)
	if err != nil {
		return err
	}
	rep.set("ppp.encode_MBps", enc)
	rep.set("ppp.deframe_MBps", def)
	rep.set("ppp.allocs_per_frame", allocs)
	m, err := marshalKernel(payload)
	if err != nil {
		return err
	}
	rep.set("netsim.marshal_ns", m)
	s, err := schedKernel(o.seed)
	if err != nil {
		return err
	}
	rep.set("sim.sched_fire_ns", s)
	b, st, err := decodeKernel(logs)
	if err != nil {
		return err
	}
	rep.set("itg.decode_ms", b)
	rep.set("itg.stream_decode_ms", st)
	rep.detail["kernel_payload_bytes"] = payload
	rep.detail["kernel_log_records"] = logs.sent.Len() + logs.recv.Len() + logs.echo.Len()
	return nil
}
