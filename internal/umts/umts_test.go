package umts

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/modem"
	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/ppp"
	"github.com/onelab/umtslab/internal/sim"
)

// --- radioDir unit tests ---

func newDir(t *testing.T, cfg RadioDirConfig) (*sim.Loop, *radioDir, *[]time.Duration) {
	t.Helper()
	loop := sim.NewLoop(1)
	arrivals := &[]time.Duration{}
	d := newRadioDir(loop, loop.RNG("t"), "umts/test", cfg, func(p []byte) {
		*arrivals = append(*arrivals, loop.Now())
	})
	return loop, d, arrivals
}

func TestRadioDirPacing(t *testing.T) {
	// 1000 bytes at 80 kbps = 100ms serialization, +50ms base delay.
	loop, d, arrivals := newDir(t, RadioDirConfig{RateBps: 80e3, BaseDelay: 50 * time.Millisecond})
	d.send(make([]byte, 1000))
	loop.Run()
	if len(*arrivals) != 1 || (*arrivals)[0] != 150*time.Millisecond {
		t.Fatalf("arrivals = %v, want [150ms]", *arrivals)
	}
}

func TestRadioDirQueueDropTail(t *testing.T) {
	loop, d, arrivals := newDir(t, RadioDirConfig{RateBps: 80e3, QueueBytes: 2000})
	for i := 0; i < 5; i++ {
		d.send(make([]byte, 1000)) // 1 in flight + 2 queued + 2 dropped
	}
	loop.Run()
	if len(*arrivals) != 3 {
		t.Fatalf("delivered %d, want 3", len(*arrivals))
	}
	if d.Stats().QueueDrops != 2 || d.Stats().DropBytes != 2000 {
		t.Fatalf("drops = %+v", d.Stats())
	}
}

func TestRadioDirRateChangeMidstream(t *testing.T) {
	loop, d, arrivals := newDir(t, RadioDirConfig{RateBps: 80e3})
	d.send(make([]byte, 1000)) // 100ms at 80k
	d.send(make([]byte, 1000)) // queued
	loop.After(50*time.Millisecond, func() { d.setRate(160e3) })
	loop.Run()
	// First finishes at 100ms (old rate); second at 100+50=150ms.
	if (*arrivals)[0] != 100*time.Millisecond || (*arrivals)[1] != 150*time.Millisecond {
		t.Fatalf("arrivals = %v", *arrivals)
	}
}

func TestRadioDirPauseResume(t *testing.T) {
	loop, d, arrivals := newDir(t, RadioDirConfig{RateBps: 80e3})
	d.pause()
	d.send(make([]byte, 1000))
	loop.After(500*time.Millisecond, func() { d.resume() })
	loop.Run()
	if len(*arrivals) != 1 || (*arrivals)[0] != 600*time.Millisecond {
		t.Fatalf("arrivals = %v, want [600ms]", *arrivals)
	}
}

func TestRadioDirPauseQueuesDuringFade(t *testing.T) {
	loop, d, arrivals := newDir(t, RadioDirConfig{RateBps: 80e3, QueueBytes: 1500})
	d.pause()
	d.send(make([]byte, 1000)) // queued
	d.send(make([]byte, 1000)) // exceeds queue: dropped
	loop.After(time.Second, func() { d.resume() })
	loop.Run()
	if len(*arrivals) != 1 {
		t.Fatalf("delivered %d, want 1", len(*arrivals))
	}
	if d.Stats().QueueDrops != 1 {
		t.Fatalf("drops = %d, want 1", d.Stats().QueueDrops)
	}
}

func TestRadioDirTTIJitterBounded(t *testing.T) {
	loop := sim.NewLoop(2)
	var arrivals []time.Duration
	d := newRadioDir(loop, loop.RNG("t"), "umts/test", RadioDirConfig{
		RateBps: 1e6, BaseDelay: 50 * time.Millisecond, TTI: 10 * time.Millisecond,
	}, func(p []byte) { arrivals = append(arrivals, loop.Now()) })
	var sendTimes []time.Duration
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		loop.At(at, func() { d.send(make([]byte, 100)) })
		sendTimes = append(sendTimes, at)
	}
	loop.Run()
	if len(arrivals) != 100 {
		t.Fatalf("delivered %d", len(arrivals))
	}
	seenJitter := false
	for i, at := range arrivals {
		delay := at - sendTimes[i]
		if delay < 50*time.Millisecond || delay > 62*time.Millisecond {
			t.Fatalf("delay %v out of [base, base+TTI+ser] bounds", delay)
		}
		if delay != arrivals[0]-sendTimes[0] {
			seenJitter = true
		}
	}
	if !seenJitter {
		t.Fatal("TTI alignment should produce varying delays")
	}
}

func TestRadioDirNoReordering(t *testing.T) {
	loop := sim.NewLoop(3)
	var order []byte
	d := newRadioDir(loop, loop.RNG("t"), "umts/test", RadioDirConfig{
		RateBps: 1e6, BaseDelay: 20 * time.Millisecond, TTI: 10 * time.Millisecond,
		HarqProb: 0.5, HarqRetx: 15 * time.Millisecond, HarqMax: 3,
	}, func(p []byte) { order = append(order, p[0]) })
	for i := byte(0); i < 50; i++ {
		p := make([]byte, 200)
		p[0] = i
		loop.At(time.Duration(i)*5*time.Millisecond, func() { d.send(p) })
	}
	loop.Run()
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1]+1 {
			t.Fatalf("reordered: %v", order)
		}
	}
}

func TestRadioDirClose(t *testing.T) {
	loop, d, arrivals := newDir(t, RadioDirConfig{RateBps: 80e3})
	d.send(make([]byte, 1000))
	d.close()
	d.send(make([]byte, 1000))
	loop.Run()
	if len(*arrivals) != 0 {
		t.Fatalf("closed dir delivered %d chunks", len(*arrivals))
	}
}

// --- operator/terminal integration ---

// dialUp establishes a PPP session directly over the radio bearer (no
// modem/serial; those layers have their own tests) and returns the
// client. onIP, if non-nil, receives downlink IP datagrams.
func dialUp(t *testing.T, loop *sim.Loop, op *Operator, term *Terminal, creds ppp.Credentials, onIP func([]byte)) *ppp.Client {
	t.Helper()
	var client *ppp.Client
	term.Dial(op.cfg.APN, func(b modem.DataBearer, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		client = ppp.NewClient(ppp.ClientConfig{
			Name: "host", Loop: loop, Channel: b, Creds: creds, OnIPv4: onIP,
		})
		client.Start()
	})
	loop.RunUntil(loop.Now() + 30*time.Second)
	if client == nil || !client.Up() {
		t.Fatal("PPP over the bearer did not come up")
	}
	return client
}

func testOperator(t *testing.T, cfg Config) (*sim.Loop, *netsim.Network, *Operator) {
	t.Helper()
	loop := sim.NewLoop(1)
	nw := netsim.NewNetwork(loop)
	op := NewOperator(loop, nw, cfg)
	return loop, nw, op
}

func TestRegistrationTimeline(t *testing.T) {
	loop, _, op := testOperator(t, Commercial())
	term := op.NewTerminal("222015550001")
	if st, _ := term.Registration(); st != modem.RegSearching {
		t.Fatalf("initial state = %v, want searching", st)
	}
	if term.SignalQuality() != 99 {
		t.Fatal("signal quality must be unknown while searching")
	}
	loop.RunUntil(5 * time.Second)
	st, opName := term.Registration()
	if st != modem.RegHome || opName != "SimTel IT" {
		t.Fatalf("after reg: %v %q", st, opName)
	}
	if term.SignalQuality() != 14 {
		t.Fatalf("signal = %d", term.SignalQuality())
	}
}

func TestDialBadAPN(t *testing.T) {
	loop, _, op := testOperator(t, Commercial())
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	var gotErr error
	term.Dial("wrong.apn", func(b modem.DataBearer, err error) { gotErr = err })
	loop.Run()
	if !errors.Is(gotErr, ErrBadAPN) {
		t.Fatalf("err = %v, want ErrBadAPN", gotErr)
	}
}

func TestDialEmptyAPNUsesDefault(t *testing.T) {
	loop, _, op := testOperator(t, Commercial())
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	var ok bool
	term.Dial("", func(b modem.DataBearer, err error) { ok = err == nil && b != nil })
	loop.RunUntil(10 * time.Second)
	if !ok {
		t.Fatal("empty APN should activate the default context")
	}
}

func TestPPPOverBearerAssignsPoolAddr(t *testing.T) {
	loop, _, op := testOperator(t, Commercial())
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	client := dialUp(t, loop, op, term, ppp.Credentials{User: "web", Password: "web"}, nil)
	if !op.cfg.Pool.Contains(client.LocalAddr()) {
		t.Fatalf("assigned %v, not from pool %v", client.LocalAddr(), op.cfg.Pool)
	}
	if client.PeerAddr() != op.cfg.GGSNAddr {
		t.Fatalf("peer %v, want GGSN %v", client.PeerAddr(), op.cfg.GGSNAddr)
	}
	if op.ActiveSessions() != 1 {
		t.Fatalf("sessions = %d", op.ActiveSessions())
	}
}

func TestEndToEndThroughGGSN(t *testing.T) {
	loop, nw, op := testOperator(t, Commercial())
	// Internet side: GGSN <-> server.
	server := nw.AddNode("server")
	nw.WireP2P("gi", op.GGSN(), "gi0", netsim.MustAddr("192.0.2.1"),
		server, "eth0", netsim.MustAddr("192.0.2.2"),
		netsim.LinkConfig{Delay: 10 * time.Millisecond}, netsim.LinkConfig{Delay: 10 * time.Millisecond})
	op.SetGi("gi0")

	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	var got []byte
	client := dialUp(t, loop, op, term, ppp.Credentials{User: "web", Password: "web"}, func(b []byte) {
		pkt, err := netsim.Unmarshal(b)
		if err == nil {
			got = pkt.Payload
		}
	})

	// Echo server on the wired side.
	server.Bind(netsim.ProtoUDP, 9000, func(pkt *netsim.Packet) {
		reply := &netsim.Packet{
			Src: pkt.Dst, Dst: pkt.Src, Proto: netsim.ProtoUDP,
			SrcPort: pkt.DstPort, DstPort: pkt.SrcPort,
			Payload: append([]byte("echo:"), pkt.Payload...),
		}
		server.Send(reply)
	})

	req := &netsim.Packet{
		Src: client.LocalAddr(), Dst: netsim.MustAddr("192.0.2.2"),
		Proto: netsim.ProtoUDP, SrcPort: 5000, DstPort: 9000, TTL: 64,
		Payload: []byte("hello via umts"),
	}
	if err := client.SendIPv4(req.Marshal()); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 10*time.Second)
	if string(got) != "echo:hello via umts" {
		t.Fatalf("got %q", got)
	}
}

func TestFirewallBlocksUnsolicitedInbound(t *testing.T) {
	loop, nw, op := testOperator(t, Commercial())
	server := nw.AddNode("server")
	nw.WireP2P("gi", op.GGSN(), "gi0", netsim.MustAddr("192.0.2.1"),
		server, "eth0", netsim.MustAddr("192.0.2.2"),
		netsim.LinkConfig{}, netsim.LinkConfig{})
	op.SetGi("gi0")
	server.Route = nil // default: via peer

	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	client := dialUp(t, loop, op, term, ppp.Credentials{User: "web", Password: "web"}, nil)

	// Unsolicited packet toward the subscriber (e.g. an ssh attempt).
	pkt := &netsim.Packet{
		Src: netsim.MustAddr("192.0.2.2"), Dst: client.LocalAddr(),
		Proto: netsim.ProtoUDP, SrcPort: 1022, DstPort: 22, TTL: 64, Payload: []byte("SYN"),
	}
	server.Send(pkt)
	loop.RunUntil(loop.Now() + 5*time.Second)
	if op.FirewallDrops != 1 {
		t.Fatalf("FirewallDrops = %d, want 1", op.FirewallDrops)
	}
}

func TestPoolExhaustion(t *testing.T) {
	cfg := Commercial()
	cfg.Pool = netsim.MustPrefix("10.133.7.0/30") // .2 and .3 usable after skipping .0/.1
	loop, _, op := testOperator(t, cfg)
	t1 := op.NewTerminal("i1")
	t2 := op.NewTerminal("i2")
	t3 := op.NewTerminal("i3")
	loop.RunUntil(5 * time.Second)
	var err1, err2, err3 error
	t1.Dial(cfg.APN, func(b modem.DataBearer, err error) { err1 = err })
	loop.RunUntil(10 * time.Second)
	t2.Dial(cfg.APN, func(b modem.DataBearer, err error) { err2 = err })
	loop.RunUntil(15 * time.Second)
	t3.Dial(cfg.APN, func(b modem.DataBearer, err error) { err3 = err })
	loop.RunUntil(20 * time.Second)
	if err1 != nil || err2 != nil {
		t.Fatalf("dials into a 2-address pool failed: %v %v", err1, err2)
	}
	if !errors.Is(err3, ErrPoolExhausted) {
		t.Fatalf("third dial err = %v, want pool exhausted", err3)
	}
}

func TestDialWhileActive(t *testing.T) {
	loop, _, op := testOperator(t, Commercial())
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	term.Dial(op.cfg.APN, func(modem.DataBearer, error) {})
	loop.RunUntil(10 * time.Second)
	var gotErr error
	term.Dial(op.cfg.APN, func(b modem.DataBearer, err error) { gotErr = err })
	loop.RunUntil(12 * time.Second)
	if !errors.Is(gotErr, ErrBusySession) {
		t.Fatalf("err = %v, want ErrBusySession", gotErr)
	}
}

func TestCarrierLossNotifiesTerminal(t *testing.T) {
	loop, _, op := testOperator(t, Commercial())
	term := op.NewTerminal("i1")
	lost := false
	term.OnCarrierLost = func() { lost = true }
	loop.RunUntil(5 * time.Second)
	term.Dial(op.cfg.APN, func(modem.DataBearer, error) {})
	loop.RunUntil(10 * time.Second)
	if !term.SessionActive() {
		t.Fatal("no session")
	}
	op.DropAllSessions("coverage lost")
	loop.Run()
	if !lost {
		t.Fatal("OnCarrierLost not invoked")
	}
	if term.SessionActive() {
		t.Fatal("session still active")
	}
	if op.ActiveSessions() != 0 {
		t.Fatal("operator still tracks the session")
	}
}

func TestHangUpReleasesAddress(t *testing.T) {
	cfg := Commercial()
	cfg.Pool = netsim.MustPrefix("10.133.7.0/30")
	loop, _, op := testOperator(t, cfg)
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	term.Dial(cfg.APN, func(modem.DataBearer, error) {})
	loop.RunUntil(10 * time.Second)
	term.HangUp()
	loop.Run()
	// The single pool address must be reusable.
	var err error
	term.Dial(cfg.APN, func(b modem.DataBearer, e error) { err = e })
	loop.RunUntil(20 * time.Second)
	if err != nil {
		t.Fatalf("redial after hangup: %v", err)
	}
}

func saturationPacket(size int) []byte {
	p := &netsim.Packet{
		Src: netsim.MustAddr("10.133.7.2"), Dst: netsim.MustAddr("192.0.2.99"),
		Proto: netsim.ProtoUDP, SrcPort: 5000, DstPort: 9000, TTL: 64,
		Payload: make([]byte, size),
	}
	return p.Marshal()
}

func TestAdaptationUpgradesUnderSaturation(t *testing.T) {
	cfg := Commercial()
	cfg.Fades.MeanInterval = 0 // keep the timing deterministic
	loop, _, op := testOperator(t, cfg)
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	client := dialUp(t, loop, op, term, ppp.Credentials{User: "web", Password: "web"}, nil)
	// Saturate the uplink: ~1 Mbps of 1024-byte-payload datagrams.
	wire := saturationPacket(1024)
	tick := loop.NewTicker(8200*time.Microsecond, func() { client.SendIPv4(wire) })
	loop.RunUntil(loop.Now() + 70*time.Second)
	tick.Stop()
	events := term.SessionEvents()
	upgraded := false
	for _, e := range events {
		if strings.Contains(e, "bearer upgraded: uplink 416 kbps") {
			upgraded = true
		}
	}
	if !upgraded {
		t.Fatalf("no bearer upgrade in events: %v", events)
	}
	if term.UplinkStats().QueueDrops == 0 {
		t.Fatal("saturation should overflow the radio buffer")
	}
}

func TestNoAdaptationWhenIdle(t *testing.T) {
	cfg := Commercial()
	cfg.Fades.MeanInterval = 0
	loop, _, op := testOperator(t, cfg)
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	client := dialUp(t, loop, op, term, ppp.Credentials{User: "web", Password: "web"}, nil)
	// Light traffic well under the initial bearer rate.
	wire := saturationPacket(100)
	tick := loop.NewTicker(100*time.Millisecond, func() { client.SendIPv4(wire) })
	loop.RunUntil(loop.Now() + 70*time.Second)
	tick.Stop()
	if !term.SessionActive() {
		t.Fatal("session should still be active")
	}
	for _, e := range term.SessionEvents() {
		if strings.Contains(e, "upgraded") {
			t.Fatalf("unexpected upgrade: %v", e)
		}
	}
}

func TestMicrocellProfile(t *testing.T) {
	cfg := Microcell()
	if cfg.Adaptation.Enabled || cfg.Fades.MeanInterval != 0 || cfg.Firewall {
		t.Fatal("microcell should be clean: no adaptation, fades, or firewall")
	}
	loop, _, op := testOperator(t, cfg)
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	client := dialUp(t, loop, op, term, ppp.Credentials{User: "onelab", Password: "onelab"}, nil)
	if !cfg.Pool.Contains(client.LocalAddr()) {
		t.Fatal("microcell pool assignment failed")
	}
}

func TestSetGiUnknownIfacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _, op := testOperator(t, Commercial())
	op.SetGi("nope")
}

func TestFadesCauseRTTSpikes(t *testing.T) {
	// With channel fades the same light flow sees delay spikes roughly
	// the fade length; without fades delays stay near the base latency.
	run := func(fades bool) time.Duration {
		cfg := Commercial()
		if fades {
			// Frequent, long-enough fades so the 60 s probe window is
			// guaranteed to contain several.
			cfg.Fades = FadeConfig{MeanInterval: 2 * time.Second,
				MinDuration: 300 * time.Millisecond, MaxDuration: 400 * time.Millisecond}
		} else {
			cfg.Fades.MeanInterval = 0
		}
		loop, _, op := testOperator(t, cfg)
		term := op.NewTerminal("i1")
		loop.RunUntil(5 * time.Second)
		client := dialUp(t, loop, op, term, ppp.Credentials{User: "web", Password: "web"}, nil)
		// Track the largest gap between consecutive uplink deliveries:
		// a fade stalls the channel, so the gap jumps to the fade length.
		var maxGap, lastDeliver time.Duration
		sess := op.sessionsSnapshot()[0]
		origDeliver := sess.srvCh.recv
		sess.srvCh.recv = func(p []byte) {
			if lastDeliver != 0 {
				if gap := loop.Now() - lastDeliver; gap > maxGap {
					maxGap = gap
				}
			}
			lastDeliver = loop.Now()
			if origDeliver != nil {
				origDeliver(p)
			}
		}
		wire := saturationPacket(100)
		tick := loop.NewTicker(50*time.Millisecond, func() {
			client.SendIPv4(wire)
		})
		loop.RunUntil(loop.Now() + 60*time.Second)
		tick.Stop()
		return maxGap
	}
	with := run(true)
	without := run(false)
	if with < without+200*time.Millisecond {
		t.Fatalf("fades should add visible delivery stalls: with=%v without=%v", with, without)
	}
	if without > 200*time.Millisecond {
		t.Fatalf("clean channel should deliver steadily, max gap %v", without)
	}
}

func TestDownlinkCarriesEchoTraffic(t *testing.T) {
	// The downlink path (GGSN -> radio -> modem) must deliver the echo
	// stream without loss when under capacity.
	loop, nw, op := testOperator(t, Commercial())
	server := nw.AddNode("server")
	nw.WireP2P("gi", op.GGSN(), "gi0", netsim.MustAddr("192.0.2.1"),
		server, "eth0", netsim.MustAddr("192.0.2.2"),
		netsim.LinkConfig{Delay: 5 * time.Millisecond}, netsim.LinkConfig{Delay: 5 * time.Millisecond})
	op.SetGi("gi0")
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	received := 0
	client := dialUp(t, loop, op, term, ppp.Credentials{User: "web", Password: "web"},
		func(b []byte) { received++ })
	server.Bind(netsim.ProtoUDP, 9000, func(pkt *netsim.Packet) {
		server.Send(&netsim.Packet{
			Src: pkt.Dst, Dst: pkt.Src, Proto: netsim.ProtoUDP,
			SrcPort: pkt.DstPort, DstPort: pkt.SrcPort, Payload: pkt.Payload,
		})
	})
	p := &netsim.Packet{
		Src: client.LocalAddr(), Dst: netsim.MustAddr("192.0.2.2"),
		Proto: netsim.ProtoUDP, SrcPort: 5000, DstPort: 9000, TTL: 64,
		Payload: make([]byte, 200),
	}
	wire := p.Marshal()
	const n = 200
	tick := loop.NewTicker(50*time.Millisecond, func() { client.SendIPv4(wire) })
	loop.RunUntil(loop.Now() + n*50*time.Millisecond)
	tick.Stop()
	loop.RunUntil(loop.Now() + 5*time.Second)
	if received < n*95/100 {
		t.Fatalf("downlink delivered %d of ~%d echoes", received, n)
	}
}

func TestAdaptationReleasesOnIdle(t *testing.T) {
	cfg := Commercial()
	cfg.Fades.MeanInterval = 0
	cfg.Adaptation.HoldTime = 5 * time.Second
	cfg.Adaptation.IdleHoldTime = 10 * time.Second
	loop, _, op := testOperator(t, cfg)
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	client := dialUp(t, loop, op, term, ppp.Credentials{User: "web", Password: "web"}, nil)
	// Saturate long enough to upgrade, then go quiet.
	wire := saturationPacket(1024)
	tick := loop.NewTicker(8200*time.Microsecond, func() { client.SendIPv4(wire) })
	loop.RunUntil(loop.Now() + 20*time.Second)
	tick.Stop()
	loop.RunUntil(loop.Now() + 30*time.Second)
	var upgraded, released bool
	for _, e := range term.SessionEvents() {
		if strings.Contains(e, "upgraded") {
			upgraded = true
		}
		if strings.Contains(e, "released") {
			released = true
		}
	}
	if !upgraded {
		t.Fatalf("no upgrade: %v", term.SessionEvents())
	}
	if !released {
		t.Fatalf("no release after idle: %v", term.SessionEvents())
	}
}

// TestRingsStayBoundedOverVoIPCell runs the paper's VoIP flow shape
// (100 pps of 90-byte payloads with an echo back) for 120 s over a
// dialed session and checks every FIFO on the session's path: both
// radio directions' transmit queues and delivery FIFOs, and the two
// core-transit rings. Each must stay within max(32, 2 × its peak live
// entries). A ring that only rewinds when fully drained grew to
// thousands of slots here.
func TestRingsStayBoundedOverVoIPCell(t *testing.T) {
	loop, nw, op := testOperator(t, Commercial())
	server := nw.AddNode("server")
	nw.WireP2P("gi", op.GGSN(), "gi0", netsim.MustAddr("192.0.2.1"),
		server, "eth0", netsim.MustAddr("192.0.2.2"),
		netsim.LinkConfig{Delay: 5 * time.Millisecond}, netsim.LinkConfig{Delay: 5 * time.Millisecond})
	op.SetGi("gi0")
	term := op.NewTerminal("i1")
	loop.RunUntil(5 * time.Second)
	echoes := 0
	client := dialUp(t, loop, op, term, ppp.Credentials{User: "web", Password: "web"},
		func([]byte) { echoes++ })
	server.Bind(netsim.ProtoUDP, 9000, func(pkt *netsim.Packet) {
		server.Send(&netsim.Packet{
			Src: pkt.Dst, Dst: pkt.Src, Proto: netsim.ProtoUDP,
			SrcPort: pkt.DstPort, DstPort: pkt.SrcPort, Payload: pkt.Payload,
		})
	})
	p := &netsim.Packet{
		Src: client.LocalAddr(), Dst: netsim.MustAddr("192.0.2.2"),
		Proto: netsim.ProtoUDP, SrcPort: 5000, DstPort: 9000, TTL: 64,
		Payload: make([]byte, 90),
	}
	wire := p.Marshal()
	tick := loop.NewTicker(10*time.Millisecond, func() { client.SendIPv4(wire) })
	loop.RunUntil(loop.Now() + 120*time.Second)
	tick.Stop()
	loop.RunUntil(loop.Now() + 5*time.Second)
	if echoes < 11500 {
		t.Fatalf("%d echoes of ~12000 packets: the cell did not carry the flow", echoes)
	}
	sess := activeSession(t, op, term)
	type ring interface {
		Cap() int
		Peak() int
	}
	for name, r := range map[string]ring{
		"ul queue": &sess.ul.queue, "ul pending": &sess.ul.pending,
		"dl queue": &sess.dl.queue, "dl pending": &sess.dl.pending,
		"core to NAS": &sess.toNAS, "core to GGSN": &sess.toGGSN,
	} {
		if r.Cap() > max(32, 2*r.Peak()) {
			t.Errorf("%s ring grew to %d slots for a peak of %d", name, r.Cap(), r.Peak())
		}
	}
}
