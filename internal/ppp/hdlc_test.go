package ppp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/onelab/umtslab/internal/sim"
)

func simNewLoopForFuzz() *sim.Loop { return sim.NewLoop(99) }

func TestFCSKnownVector(t *testing.T) {
	// CRC-16/X-25 check value: FCS("123456789") = 0x906e.
	if got := ^fcs16(fcsInit, []byte("123456789")); got != 0x906e {
		t.Fatalf("FCS = %#04x, want 0x906e", got)
	}
}

func TestFCSGoodResidue(t *testing.T) {
	data := []byte("any old frame content")
	fcs := ^fcs16(fcsInit, data)
	framed := append(append([]byte(nil), data...), byte(fcs&0xff), byte(fcs>>8))
	if fcs16(fcsInit, framed) != fcsGood {
		t.Fatal("appending the FCS must leave the good residue")
	}
}

func deframeAll(t *testing.T, stream []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	d := Deframer{OnFrame: func(p []byte) { frames = append(frames, p) }}
	if err := d.Feed(stream); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	return frames
}

func TestEncodeDeframeRoundtrip(t *testing.T) {
	payload := EncapsulatePPP(ProtoLCP, []byte{1, 2, 0, 8, 0xde, 0xad, 0xbe, 0xef})
	frames := deframeAll(t, EncodeFrame(payload))
	if len(frames) != 1 || !bytes.Equal(frames[0], payload) {
		t.Fatalf("roundtrip failed: %x", frames)
	}
}

func TestEscapingOfControlBytes(t *testing.T) {
	// Payload containing flag, escape, and low control bytes.
	payload := []byte{0x00, 0x21, hdlcFlag, hdlcEscape, 0x00, 0x1f, 0x20, 0x7f}
	wire := EncodeFrame(payload)
	// Between the framing flags there must be no raw flag/escape/ctl bytes.
	inner := wire[1 : len(wire)-1]
	for i := 0; i < len(inner); i++ {
		if inner[i] == hdlcFlag {
			t.Fatalf("unescaped flag byte at %d", i)
		}
		if inner[i] == hdlcEscape {
			i++ // next byte is the escaped value
			continue
		}
		if inner[i] < 0x20 {
			t.Fatalf("unescaped control byte %#02x at %d", inner[i], i)
		}
	}
	frames := deframeAll(t, wire)
	if len(frames) != 1 || !bytes.Equal(frames[0], payload) {
		t.Fatalf("roundtrip failed: %x", frames)
	}
}

func TestDeframerSplitDelivery(t *testing.T) {
	payload := EncapsulatePPP(ProtoIPv4, bytes.Repeat([]byte{0x7e, 0x7d, 0x03, 0xaa}, 50))
	wire := EncodeFrame(payload)
	var frames [][]byte
	d := Deframer{OnFrame: func(p []byte) { frames = append(frames, p) }}
	// Feed one byte at a time.
	for _, b := range wire {
		d.Feed([]byte{b})
	}
	if len(frames) != 1 || !bytes.Equal(frames[0], payload) {
		t.Fatal("byte-at-a-time deframing failed")
	}
}

func TestDeframerBackToBackFrames(t *testing.T) {
	p1 := EncapsulatePPP(ProtoLCP, []byte{9, 1, 0, 4})
	p2 := EncapsulatePPP(ProtoIPCP, []byte{1, 1, 0, 4})
	stream := append(EncodeFrame(p1), EncodeFrame(p2)...)
	frames := deframeAll(t, stream)
	if len(frames) != 2 || !bytes.Equal(frames[0], p1) || !bytes.Equal(frames[1], p2) {
		t.Fatalf("got %d frames", len(frames))
	}
}

func TestDeframerSharedFlag(t *testing.T) {
	// A single flag may terminate one frame and open the next.
	p1 := EncapsulatePPP(ProtoLCP, []byte{9, 1, 0, 4})
	p2 := EncapsulatePPP(ProtoLCP, []byte{10, 1, 0, 4})
	w1 := EncodeFrame(p1)
	w2 := EncodeFrame(p2)
	stream := append(w1, w2[1:]...) // drop the opening flag of frame 2
	frames := deframeAll(t, stream)
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(frames))
	}
}

func TestDeframerFCSError(t *testing.T) {
	payload := EncapsulatePPP(ProtoLCP, []byte{1, 1, 0, 4})
	wire := EncodeFrame(payload)
	wire[3] ^= 0x01 // corrupt a payload byte
	var d Deframer
	d.OnFrame = func(p []byte) { t.Fatal("corrupted frame delivered") }
	d.Feed(wire)
	if d.FCSErrors != 1 {
		t.Fatalf("FCSErrors = %d, want 1", d.FCSErrors)
	}
}

func TestDeframerIgnoresInterFrameNoise(t *testing.T) {
	payload := EncapsulatePPP(ProtoLCP, []byte{1, 1, 0, 4})
	stream := append([]byte("\r\nCONNECT 3600000\r\n"), EncodeFrame(payload)...)
	frames := deframeAll(t, stream)
	if len(frames) != 1 {
		t.Fatalf("got %d frames, want 1 (noise must be skipped)", len(frames))
	}
}

func TestDeframerRunt(t *testing.T) {
	var d Deframer
	d.OnFrame = func(p []byte) { t.Fatal("runt delivered") }
	d.Feed([]byte{hdlcFlag, 0xff, 0x03, 0x01, hdlcFlag})
	if d.Runts != 1 {
		t.Fatalf("Runts = %d, want 1", d.Runts)
	}
}

func TestDeframerOversized(t *testing.T) {
	var d Deframer
	stream := append([]byte{hdlcFlag}, bytes.Repeat([]byte{0xaa}, maxFrame+10)...)
	if err := d.Feed(stream); err != ErrOversizedFrame {
		t.Fatalf("err = %v, want ErrOversizedFrame", err)
	}
	// Recovery: a valid frame afterwards is still decoded.
	payload := EncapsulatePPP(ProtoLCP, []byte{1, 1, 0, 4})
	got := 0
	d.OnFrame = func(p []byte) { got++ }
	d.Feed(EncodeFrame(payload))
	if got != 1 {
		t.Fatal("deframer did not recover after oversized frame")
	}
}

// Property: EncodeFrame/Deframer round-trip arbitrary payloads, including
// every byte value.
func TestPropertyHDLCRoundtrip(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) < 4 {
			payload = append(payload, 0, 0, 0, 0)
		}
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		var got [][]byte
		d := Deframer{OnFrame: func(p []byte) { got = append(got, p) }}
		if err := d.Feed(EncodeFrame(payload)); err != nil {
			return false
		}
		return len(got) == 1 && bytes.Equal(got[0], payload)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: random single-byte corruption is never delivered as a valid
// frame with different content (FCS catches it) — or is detected as a
// framing anomaly. It must never panic.
func TestPropertyHDLCCorruption(t *testing.T) {
	payload := EncapsulatePPP(ProtoIPv4, bytes.Repeat([]byte{0x55}, 100))
	wire := EncodeFrame(payload)
	f := func(pos uint16, bit uint8) bool {
		w := append([]byte(nil), wire...)
		w[int(pos)%len(w)] ^= 1 << (bit % 8)
		ok := true
		d := Deframer{OnFrame: func(p []byte) {
			// If a frame is delivered it must be the original payload
			// (corruption of framing bytes can still yield the frame).
			if !bytes.Equal(p, payload) {
				ok = false
			}
		}}
		d.Feed(w)
		d.Feed([]byte{hdlcFlag}) // flush a possibly unterminated frame
		return ok
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOptionCodecRoundtrip(t *testing.T) {
	opts := []Option{
		U16Option(OptMRU, 1500),
		U32Option(OptMagic, 0xdeadbeef),
		{Type: OptAuthProto, Data: []byte{0xc2, 0x23, 0x05}},
	}
	parsed, err := ParseOptions(MarshalOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 3 {
		t.Fatalf("parsed %d options", len(parsed))
	}
	for i := range opts {
		if parsed[i].Type != opts[i].Type || !bytes.Equal(parsed[i].Data, opts[i].Data) {
			t.Fatalf("option %d mismatch", i)
		}
	}
}

func TestParseOptionsMalformed(t *testing.T) {
	for _, bad := range [][]byte{{1}, {1, 1}, {1, 9, 0}} {
		if _, err := ParseOptions(bad); err == nil {
			t.Fatalf("ParseOptions(%v) should fail", bad)
		}
	}
}

func TestControlPacketCodec(t *testing.T) {
	p := ControlPacket{Code: CodeConfReq, ID: 7, Data: []byte{1, 4, 5, 220}}
	got, err := ParseControl(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != p.Code || got.ID != p.ID || !bytes.Equal(got.Data, p.Data) {
		t.Fatalf("roundtrip: %+v vs %+v", got, p)
	}
}

func TestParseControlMalformed(t *testing.T) {
	if _, err := ParseControl([]byte{1, 2, 0}); err == nil {
		t.Fatal("short packet should fail")
	}
	if _, err := ParseControl([]byte{1, 2, 0, 99}); err == nil {
		t.Fatal("bad length field should fail")
	}
	// Length smaller than header.
	if _, err := ParseControl([]byte{1, 2, 0, 2}); err == nil {
		t.Fatal("undersized length field should fail")
	}
}

func TestChapValueCodec(t *testing.T) {
	v, name, err := parseChapValue(marshalChapValue([]byte{1, 2, 3}, "operator"))
	if err != nil || !bytes.Equal(v, []byte{1, 2, 3}) || name != "operator" {
		t.Fatalf("chap value roundtrip: %v %q %v", v, name, err)
	}
	if _, _, err := parseChapValue(nil); err == nil {
		t.Fatal("empty chap value should fail")
	}
	if _, _, err := parseChapValue([]byte{10, 1, 2}); err == nil {
		t.Fatal("short chap value should fail")
	}
}

func TestPapRequestCodec(t *testing.T) {
	c := Credentials{User: "onelab", Password: "secret!"}
	got, err := parsePapRequest(marshalPapRequest(c))
	if err != nil || got != c {
		t.Fatalf("pap roundtrip: %+v %v", got, err)
	}
	for _, bad := range [][]byte{nil, {5, 'a'}, {1, 'a', 9, 'x'}} {
		if _, err := parsePapRequest(bad); err == nil {
			t.Fatalf("parsePapRequest(%v) should fail", bad)
		}
	}
}

func TestChapHashVerify(t *testing.T) {
	ch := []byte("challenge-bytes")
	h := chapHash(7, "s3cret", ch)
	if !chapVerify(7, "s3cret", ch, h) {
		t.Fatal("verify of own hash failed")
	}
	if chapVerify(8, "s3cret", ch, h) {
		t.Fatal("different id must not verify")
	}
	if chapVerify(7, "other", ch, h) {
		t.Fatal("different secret must not verify")
	}
}

// Property: the control-protocol automaton survives arbitrary byte blobs
// presented as control packets (fuzzing the parser + state machine).
func TestPropertyAutomatonRobust(t *testing.T) {
	f := func(blobs [][]byte) bool {
		loop := simNewLoopForFuzz()
		a := newAutomaton(automatonConfig{
			Name: "fuzz", Proto: ProtoLCP, Loop: loop,
			Send:   func(uint16, ControlPacket) {},
			Policy: &lcpPolicy{mru: 1500, localACCM0: true},
		})
		a.Open()
		a.Up()
		for _, b := range blobs {
			p, err := ParseControl(b)
			if err != nil {
				continue
			}
			a.Input(p) // must not panic
		}
		loop.RunUntil(loop.Now() + 120e9)
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(15))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAppendFrameMatchesEncodeFrame locks the streaming append encoder
// to the reference EncodeFrame byte for byte, on both ACCM variants and
// across payloads that exercise escaping (control bytes, flag, escape).
func TestAppendFrameMatchesEncodeFrame(t *testing.T) {
	payloads := [][]byte{
		EncapsulatePPP(ProtoIPv4, []byte{}),
		EncapsulatePPP(ProtoIPv4, []byte("plain ascii payload")),
		EncapsulatePPP(ProtoLCP, []byte{0x00, 0x01, 0x7e, 0x7d, 0x1f, 0x20, 0xff}),
		EncapsulatePPP(ProtoIPv4, bytes.Repeat([]byte{0x7e}, 64)),
		EncapsulatePPP(ProtoCHAP, bytes.Repeat([]byte{0x00}, 300)),
	}
	for i, p := range payloads {
		if got, want := AppendFrame(nil, p), EncodeFrame(p); !bytes.Equal(got, want) {
			t.Errorf("payload %d: AppendFrame != EncodeFrame\n got %x\nwant %x", i, got, want)
		}
		if got, want := AppendFrameACCM0(nil, p), EncodeFrameACCM0(p); !bytes.Equal(got, want) {
			t.Errorf("payload %d: AppendFrameACCM0 != EncodeFrameACCM0\n got %x\nwant %x", i, got, want)
		}
		// Appending after existing content must leave the prefix alone.
		prefix := []byte("prefix")
		ext := AppendFrame(append([]byte(nil), prefix...), p)
		if !bytes.Equal(ext[:len(prefix)], prefix) || !bytes.Equal(ext[len(prefix):], EncodeFrame(p)) {
			t.Errorf("payload %d: AppendFrame clobbered the prefix or frame", i)
		}
		// And the frame must deframe back to the payload.
		var got []byte
		d := Deframer{OnFrame: func(b []byte) { got = append([]byte(nil), b...) }}
		if err := d.Feed(AppendFrame(nil, p)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("payload %d: deframe mismatch", i)
		}
	}
}

// BenchmarkEncodeFrame compares the allocating encoder against the
// append-into-caller-buffer variant on a 1052-byte IPv4 payload.
func BenchmarkEncodeFrame(b *testing.B) {
	payload := EncapsulatePPP(ProtoIPv4, make([]byte, 1052))
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			EncodeFrame(payload)
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		buf := make([]byte, 0, 2*len(payload)+16)
		for i := 0; i < b.N; i++ {
			buf = AppendFrame(buf[:0], payload)
		}
	})
}

// --- Byte-at-a-time reference framer ---
//
// refFCS16, refAppendFrameProto and refDeframer are the original
// one-octet-at-a-time RFC 1662 implementation. The shipping framer works
// on runs (slicing-by-8 FCS, bulk-copied escape runs); the differential
// tests and FuzzDeframe below hold it to this oracle byte for byte.

func refFCS16(fcs uint16, data []byte) uint16 {
	for _, b := range data {
		fcs = (fcs >> 8) ^ fcsTable[0][byte(fcs)^b]
	}
	return fcs
}

func refAppendFrameProto(dst []byte, proto uint16, info []byte, escapeCtl bool) []byte {
	dst = append(dst, hdlcFlag)
	fcs := uint16(fcsInit)
	for _, b := range [4]byte{hdlcAddress, hdlcControl, byte(proto >> 8), byte(proto)} {
		fcs = (fcs >> 8) ^ fcsTable[0][byte(fcs)^b]
		dst = refAppendEscaped(dst, b, escapeCtl)
	}
	for _, b := range info {
		fcs = (fcs >> 8) ^ fcsTable[0][byte(fcs)^b]
		dst = refAppendEscaped(dst, b, escapeCtl)
	}
	// The FCS octets are escaped like data but do not update the FCS.
	fin := ^fcs
	dst = refAppendEscaped(dst, byte(fin&0xff), escapeCtl)
	dst = refAppendEscaped(dst, byte(fin>>8), escapeCtl)
	return append(dst, hdlcFlag)
}

func refAppendEscaped(dst []byte, b byte, escapeCtl bool) []byte {
	if b == hdlcFlag || b == hdlcEscape || (escapeCtl && b < 0x20) {
		return append(dst, hdlcEscape, b^hdlcXOR)
	}
	return append(dst, b)
}

type refDeframer struct {
	OnFrame func(pppPayload []byte)

	buf     []byte
	escaped bool
	inFrame bool

	Frames    uint64
	FCSErrors uint64
	Runts     uint64
}

func (d *refDeframer) Feed(data []byte) error {
	for _, b := range data {
		switch {
		case b == hdlcFlag:
			if d.inFrame && len(d.buf) > 0 {
				d.finish()
			}
			d.inFrame = true
			d.escaped = false
			d.buf = d.buf[:0]
		case !d.inFrame:
		case b == hdlcEscape:
			d.escaped = true
		default:
			if d.escaped {
				b ^= hdlcXOR
				d.escaped = false
			}
			d.buf = append(d.buf, b)
			if len(d.buf) > maxFrame {
				d.buf = d.buf[:0]
				d.inFrame = false
				return ErrOversizedFrame
			}
		}
	}
	return nil
}

func (d *refDeframer) finish() {
	defer func() { d.buf = d.buf[:0] }()
	if len(d.buf) < 6 {
		d.Runts++
		return
	}
	if refFCS16(fcsInit, d.buf) != fcsGood {
		d.FCSErrors++
		return
	}
	payload := d.buf[:len(d.buf)-2]
	if payload[0] != hdlcAddress || payload[1] != hdlcControl {
		d.Runts++
		return
	}
	d.Frames++
	d.OnFrame(append([]byte(nil), payload[2:]...))
}

// deframeTrace is everything observable about a deframing run: the
// delivered frames, Feed's error per chunk, and the final counters.
type deframeTrace struct {
	Frames                 [][]byte
	Errs                   []error
	Good, FCSErrors, Runts uint64
	OnFCSErrorCalls        uint64
}

// traceDeframe feeds chunks to the shipping Deframer. With borrow set the
// callback copies each frame, exercising the Borrow contract.
func traceDeframe(chunks [][]byte, borrow bool) deframeTrace {
	var tr deframeTrace
	d := Deframer{Borrow: borrow, OnFCSError: func() { tr.OnFCSErrorCalls++ }}
	d.OnFrame = func(p []byte) {
		if borrow {
			p = append([]byte(nil), p...)
		}
		tr.Frames = append(tr.Frames, p)
	}
	for _, c := range chunks {
		tr.Errs = append(tr.Errs, d.Feed(c))
	}
	tr.Good, tr.FCSErrors, tr.Runts = d.Frames, d.FCSErrors, d.Runts
	return tr
}

func traceRefDeframe(chunks [][]byte) deframeTrace {
	var tr deframeTrace
	d := refDeframer{OnFrame: func(p []byte) { tr.Frames = append(tr.Frames, p) }}
	for _, c := range chunks {
		tr.Errs = append(tr.Errs, d.Feed(c))
	}
	tr.Good, tr.FCSErrors, tr.Runts = d.Frames, d.FCSErrors, d.Runts
	tr.OnFCSErrorCalls = d.FCSErrors
	return tr
}

// randPayload draws n octets in which roughly one in density is a flag,
// escape or control octet; the rest are uniform.
func randPayload(rng *rand.Rand, n, density int) []byte {
	special := []byte{hdlcFlag, hdlcEscape, 0x00, 0x03, 0x11, 0x13, 0x1f, hdlcXOR ^ hdlcFlag}
	p := make([]byte, n)
	for i := range p {
		if rng.Intn(density) == 0 {
			p[i] = special[rng.Intn(len(special))]
		} else {
			p[i] = byte(rng.Intn(256))
		}
	}
	return p
}

// randStream builds a line stream of encoded frames in both ACCM modes
// mixed with inter-frame noise, runts, corrupted FCS, shared flags,
// dangling escapes and oversized frames.
func randStream(rng *rand.Rand) []byte {
	var s []byte
	for n := rng.Intn(12); n >= 0; n-- {
		info := randPayload(rng, rng.Intn(1600), 1+rng.Intn(64))
		frame := appendFrameProto(nil, uint16(rng.Intn(1<<16)), info, rng.Intn(2) == 0)
		switch rng.Intn(10) {
		case 0: // inter-frame noise, possibly containing escapes
			s = append(s, randPayload(rng, rng.Intn(40), 4)...)
		case 1: // corrupted octet: FCS error or a framing anomaly
			frame[1+rng.Intn(len(frame)-2)] ^= byte(1 + rng.Intn(255))
		case 2: // runt
			s = append(s, hdlcFlag, hdlcAddress, hdlcControl, byte(rng.Intn(256)), hdlcFlag)
		case 3: // shared flag with the previous frame
			frame = frame[1:]
		case 4: // a flag cancels a pending escape; 7d 7d keeps it set
			s = append(s, hdlcFlag, 0x55, hdlcEscape, hdlcEscape, hdlcFlag, hdlcEscape)
		case 5: // oversized frame mid-stream
			junk := randPayload(rng, maxFrame-16+rng.Intn(1024), 1+rng.Intn(8))
			s = append(append(s, hdlcFlag), bytes.ReplaceAll(junk, []byte{hdlcFlag}, []byte{0x5e})...)
		case 6: // unterminated frame swallowed by the next
			frame = frame[:len(frame)-1]
		case 7: // a doubled escape (7d 7d x) still decodes as 7d x
			if j := bytes.IndexByte(frame, hdlcEscape); j >= 0 {
				frame = append(frame[:j:j], append([]byte{hdlcEscape}, frame[j:]...)...)
			}
		}
		s = append(s, frame...)
	}
	return s
}

// splitChunks cuts stream into chunks: one octet each (mode 0), sizes
// drawn from seed (mode 1), or right after every escape octet (mode 2).
func splitChunks(stream []byte, mode int, seed uint64) [][]byte {
	var chunks [][]byte
	x := seed | 1
	for len(stream) > 0 {
		n := len(stream)
		switch mode {
		case 0:
			n = 1
		case 1:
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			n = 1 + int(x%200)
		case 2:
			if i := bytes.IndexByte(stream, hdlcEscape); i >= 0 {
				n = i + 1
			}
		}
		n = min(n, len(stream))
		chunks = append(chunks, stream[:n])
		stream = stream[n:]
	}
	return chunks
}

func TestFCS16MatchesByteWise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	buf := randPayload(rng, 80, 4)
	for off := 0; off < 8; off++ {
		for n := 0; n <= 64; n++ {
			for _, init := range []uint16{fcsInit, 0, 0x1234} {
				if got, want := fcs16(init, buf[off:off+n]), refFCS16(init, buf[off:off+n]); got != want {
					t.Fatalf("fcs16(%#04x, buf[%d:%d]) = %#04x, byte-wise %#04x", init, off, off+n, got, want)
				}
			}
		}
	}
}

func TestEncoderMatchesByteWise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	prefix := []byte("prefix")
	for i := 0; i < 2000; i++ {
		info := randPayload(rng, rng.Intn(1600), []int{1, 2, 8, 128, 1 << 20}[i%5])
		proto := uint16(rng.Intn(1 << 16))
		for _, escapeCtl := range []bool{true, false} {
			want := refAppendFrameProto(append([]byte(nil), prefix...), proto, info, escapeCtl)
			got := appendFrameProto(append([]byte(nil), prefix...), proto, info, escapeCtl)
			if !bytes.Equal(got, want) {
				t.Fatalf("case %d escapeCtl=%v: wire differs\n got %x\nwant %x", i, escapeCtl, got, want)
			}
		}
	}
}

func TestDeframerMatchesByteWise(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 400; i++ {
		stream := randStream(rng)
		for mode := 0; mode < 3; mode++ {
			chunks := splitChunks(stream, mode, rng.Uint64())
			want := traceRefDeframe(chunks)
			for _, borrow := range []bool{false, true} {
				if got := traceDeframe(chunks, borrow); !reflect.DeepEqual(got, want) {
					t.Fatalf("case %d split %d borrow=%v: deframer differs from byte-wise\n got %+v\nwant %+v",
						i, mode, borrow, summarize(got), summarize(want))
				}
			}
		}
	}
}

// summarize keeps failure messages readable: frame lengths, not bytes.
func summarize(tr deframeTrace) string {
	lens := make([]int, len(tr.Frames))
	for i, f := range tr.Frames {
		lens[i] = len(f)
	}
	return fmt.Sprintf("frames=%v errs=%v good=%d fcs=%d runts=%d", lens, tr.Errs, tr.Good, tr.FCSErrors, tr.Runts)
}

func TestDeframerOversizedMidChunk(t *testing.T) {
	// The error fires at the (maxFrame+1)th buffered octet and discards
	// the rest of the chunk, valid frame included; the next chunk decodes.
	good := EncodeFrameACCM0(EncapsulatePPP(ProtoIPv4, []byte{1, 2, 3, 4}))
	stream := append([]byte{hdlcFlag}, bytes.Repeat([]byte{0xaa}, maxFrame+1)...)
	stream = append(stream, good...)
	chunks := [][]byte{stream, good}
	got, want := traceDeframe(chunks, true), traceRefDeframe(chunks)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %s, want %s", summarize(got), summarize(want))
	}
	if !errors.Is(got.Errs[0], ErrOversizedFrame) || got.Errs[1] != nil || got.Good != 1 {
		t.Fatalf("got %s, want one oversize error then one frame", summarize(got))
	}

	// One huge noise-free chunk is never buffered whole.
	var d Deframer
	if err := d.Feed(append([]byte{hdlcFlag}, make([]byte, 1<<16)...)); !errors.Is(err, ErrOversizedFrame) {
		t.Fatalf("err = %v, want ErrOversizedFrame", err)
	}
	if cap(d.buf) >= 2*maxFrame {
		t.Fatalf("deframer buffered %d bytes of an oversized frame", cap(d.buf))
	}
}

// FuzzDeframe holds the run-based deframer to its byte-wise reference on
// arbitrary line bytes under arbitrary chunking, and checks that every
// payload round-trips through both encoders.
func FuzzDeframe(f *testing.F) {
	for _, p := range [][]byte{
		EncapsulatePPP(ProtoLCP, []byte{1, 2, 0, 8, 0xde, 0xad, 0xbe, 0xef}),
		{0x00, 0x21, hdlcFlag, hdlcEscape, 0x00, 0x1f, 0x20, 0x7f},
		EncapsulatePPP(ProtoIPv4, bytes.Repeat([]byte{0x7e, 0x7d, 0x03, 0xaa}, 50)),
		EncapsulatePPP(ProtoCHAP, bytes.Repeat([]byte{0x00}, 300)),
	} {
		f.Add(p, uint16(0))
		f.Add(EncodeFrame(p), uint16(1))
		f.Add(EncodeFrameACCM0(p), uint16(7))
	}
	f.Add(append([]byte("\r\nCONNECT 3600000\r\n"), EncodeFrame(EncapsulatePPP(ProtoLCP, []byte{1, 1, 0, 4}))...), uint16(3))
	f.Add([]byte{hdlcFlag, 0xff, 0x03, 0x01, hdlcFlag}, uint16(2))
	f.Add([]byte{hdlcFlag, 0x55, hdlcEscape, hdlcEscape, hdlcFlag, hdlcEscape, 0x5e}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		chunks := splitChunks(data, int(split%3), uint64(split))
		got, want := traceDeframe(chunks, split&4 != 0), traceRefDeframe(chunks)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("deframer differs from byte-wise: got %s, want %s", summarize(got), summarize(want))
		}
		for _, fr := range got.Frames {
			if len(fr) > maxFrame {
				t.Fatalf("delivered a %d-octet frame, over maxFrame %d", len(fr), maxFrame)
			}
		}
		// Address, control and FCS ride on top of the payload.
		if len(data) < 2 || len(data)+4 > maxFrame {
			return
		}
		for _, wire := range [][]byte{EncodeFrame(data), EncodeFrameACCM0(data)} {
			tr := traceDeframe(splitChunks(wire, int(split%3), uint64(split)), true)
			if len(tr.Frames) != 1 || !bytes.Equal(tr.Frames[0], data) {
				t.Fatalf("round trip of %x: got %s", data, summarize(tr))
			}
		}
	})
}

func BenchmarkFCS16(b *testing.B) {
	data := make([]byte, 1056)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink = fcs16(sink, data)
	}
	fcsSink = sink
}

var fcsSink uint16
