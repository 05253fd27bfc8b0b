// Package ppp implements the Point-to-Point Protocol suite used to bring
// up the UMTS data connection: HDLC-like framing (RFC 1662), the LCP and
// IPCP control protocols (RFC 1661/1332), and PAP/CHAP authentication
// (RFC 1334/1994). A Client speaks to a Server over any byte channel —
// in the testbed, the serial line to the 3G modem, which relays bytes over
// the simulated radio link to the operator's GGSN.
package ppp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
)

// HDLC framing constants (RFC 1662).
const (
	hdlcFlag    = 0x7e
	hdlcEscape  = 0x7d
	hdlcXOR     = 0x20
	hdlcAddress = 0xff // all-stations
	hdlcControl = 0x03 // unnumbered information
)

// fcsInit and fcsGood are the FCS-16 start value and the residue left by
// a frame whose trailing FCS is correct.
const (
	fcsInit = 0xffff
	fcsGood = 0xf0b8
)

// fcsTable holds the slicing-by-8 tables of the CCITT CRC-16 with the
// reversed polynomial 0x8408. fcsTable[0] is the byte-wise table of
// RFC 1662 appendix C; fcsTable[k][i] is the FCS contribution of octet i
// followed by k zero octets, so eight octets fold into the FCS with one
// 64-bit load and eight lookups.
var fcsTable [8][256]uint16

// ctlEscaped marks the octets escaped under the default async control
// character map: every octet below 0x20, plus the flag and the escape.
var ctlEscaped [256]bool

func init() {
	for i := range fcsTable[0] {
		v := uint16(i)
		for b := 0; b < 8; b++ {
			if v&1 != 0 {
				v = (v >> 1) ^ 0x8408
			} else {
				v >>= 1
			}
		}
		fcsTable[0][i] = v
	}
	for k := 1; k < len(fcsTable); k++ {
		for i, v := range fcsTable[k-1] {
			fcsTable[k][i] = (v >> 8) ^ fcsTable[0][byte(v)]
		}
	}
	for i := 0; i < 0x20; i++ {
		ctlEscaped[i] = true
	}
	ctlEscaped[hdlcFlag] = true
	ctlEscaped[hdlcEscape] = true
}

// fcs16 updates the running FCS with data, eight octets at a time.
func fcs16(fcs uint16, data []byte) uint16 {
	t := &fcsTable
	for len(data) >= 8 {
		x := binary.LittleEndian.Uint64(data) ^ uint64(fcs)
		fcs = t[7][byte(x)] ^ t[6][byte(x>>8)] ^ t[5][byte(x>>16)] ^ t[4][byte(x>>24)] ^
			t[3][byte(x>>32)] ^ t[2][byte(x>>40)] ^ t[1][byte(x>>48)] ^ t[0][x>>56]
		data = data[8:]
	}
	for _, b := range data {
		fcs = (fcs >> 8) ^ t[0][byte(fcs)^b]
	}
	return fcs
}

// EncodeFrame wraps a PPP packet (protocol + information) into an HDLC
// frame using the default async control character map: every octet below
// 0x20 is escaped. LCP traffic always uses this form (RFC 1662 §7).
func EncodeFrame(pppPayload []byte) []byte {
	return encodeFrame(pppPayload, true)
}

// EncodeFrameACCM0 encodes a frame under a negotiated ACCM of zero: only
// the flag and escape octets themselves are escaped. Data traffic
// switches to this once LCP has opened, roughly halving the on-wire size
// of zero-padded payloads — without this negotiation a 72 kbps VoIP flow
// would not fit the initial UMTS bearer.
func EncodeFrameACCM0(pppPayload []byte) []byte {
	return encodeFrame(pppPayload, false)
}

// encodeFrame sizes the buffer for the worst case, 2*len(info)+16 with
// info = pppPayload[2:] as the link's sendPPP does, so even a frame whose
// every octet is escaped costs a single allocation.
func encodeFrame(pppPayload []byte, escapeCtl bool) []byte {
	return appendFrame(make([]byte, 0, 2*len(pppPayload)+12), pppPayload, escapeCtl)
}

// AppendFrame is EncodeFrame appending into dst (which may be an empty
// slice of a recycled buffer), returning the extended slice.
func AppendFrame(dst, pppPayload []byte) []byte {
	return appendFrame(dst, pppPayload, true)
}

// AppendFrameACCM0 is EncodeFrameACCM0 appending into dst.
func AppendFrameACCM0(dst, pppPayload []byte) []byte {
	return appendFrame(dst, pppPayload, false)
}

// appendFrame encodes straight into dst, so no intermediate "raw"
// buffer is built. appendFrameProto additionally splices the protocol
// field in front of info, sparing callers the EncapsulatePPP copy.
//
// The worst-case encoded size (every octet escaped) is
// 2*(len(info)+6)+2 bytes: address, control, protocol, FCS and both
// flags on top of the information field.
func appendFrame(dst, pppPayload []byte, escapeCtl bool) []byte {
	if len(pppPayload) < 2 {
		return dst
	}
	proto := uint16(pppPayload[0])<<8 | uint16(pppPayload[1])
	return appendFrameProto(dst, proto, pppPayload[2:], escapeCtl)
}

func appendFrameProto(dst []byte, proto uint16, info []byte, escapeCtl bool) []byte {
	hdr := [4]byte{hdlcAddress, hdlcControl, byte(proto >> 8), byte(proto)}
	// The FCS octets are escaped like data but do not update the FCS.
	fcs := ^fcs16(fcs16(fcsInit, hdr[:]), info)
	trailer := [2]byte{byte(fcs), byte(fcs >> 8)}
	dst = append(dst, hdlcFlag)
	if escapeCtl {
		dst = appendEscapedCtl(dst, hdr[:])
		dst = appendEscapedCtl(dst, info)
		dst = appendEscapedCtl(dst, trailer[:])
	} else {
		dst = appendEscapedACCM0(dst, hdr[:])
		dst = appendEscapedACCM0(dst, info)
		dst = appendEscapedACCM0(dst, trailer[:])
	}
	return append(dst, hdlcFlag)
}

// appendEscapedCtl appends src under the default ACCM. Escapes are
// dense there (every control octet, and all of a zero padding), so
// instead of copying runs it grows dst once for the worst case and
// stores octet by octet.
func appendEscapedCtl(dst, src []byte) []byte {
	n := len(dst)
	out := slices.Grow(dst, 2*len(src))[:n+2*len(src)]
	for _, b := range src {
		if ctlEscaped[b] {
			out[n] = hdlcEscape
			out[n+1] = b ^ hdlcXOR
			n += 2
		} else {
			out[n] = b
			n++
		}
	}
	return out[:n]
}

// appendEscapedACCM0 appends src under a zero ACCM, where only the flag
// and the escape octet are escaped. Both are located with IndexByte, and
// each position is remembered until passed, so every octet is scanned
// once per needle.
func appendEscapedACCM0(dst, src []byte) []byte {
	flag := indexFrom(src, 0, hdlcFlag)
	esc := indexFrom(src, 0, hdlcEscape)
	start := 0
	for {
		i := min(flag, esc)
		dst = append(dst, src[start:i]...)
		if i == len(src) {
			return dst
		}
		dst = append(dst, hdlcEscape, src[i]^hdlcXOR)
		start = i + 1
		if i == flag {
			flag = indexFrom(src, start, hdlcFlag)
		} else {
			esc = indexFrom(src, start, hdlcEscape)
		}
	}
}

// indexFrom returns the index of the first c in data at or after from,
// or len(data) if there is none.
func indexFrom(data []byte, from int, c byte) int {
	if i := bytes.IndexByte(data[from:], c); i >= 0 {
		return from + i
	}
	return len(data)
}

// Deframer is a streaming HDLC decoder: feed it arbitrary byte chunks and
// it emits complete, FCS-verified PPP payloads.
type Deframer struct {
	// OnFrame receives each valid frame's PPP payload (protocol +
	// information, without address/control/FCS).
	OnFrame func(pppPayload []byte)
	// OnFCSError, if set, is invoked for each frame discarded on an FCS
	// mismatch (observability hook; the frame is dropped either way).
	OnFCSError func()
	// Borrow makes OnFrame receive a slice of the deframer's internal
	// buffer instead of a fresh copy. The payload is only valid for the
	// duration of the callback; handlers that keep the bytes must copy.
	// The PPP link layer sets this — all its protocol handlers consume
	// frames synchronously — to keep the receive path allocation-free.
	Borrow bool

	buf     []byte
	escaped bool
	inFrame bool

	// Stats.
	Frames    uint64
	FCSErrors uint64
	Runts     uint64
}

// ErrOversizedFrame guards against unbounded buffering on a corrupted
// stream.
var ErrOversizedFrame = errors.New("ppp: oversized HDLC frame")

// maxFrame bounds the accumulated frame size (MRU 1500 + headers, with
// generous slack).
const maxFrame = 4096

// Feed consumes a chunk of line bytes. It works on runs: inter-frame
// noise is skipped up to the next flag, and each run of octets up to the
// next flag or escape is appended in one copy, capped so the buffer never
// grows past maxFrame+1. The positions of the next flag and escape are
// remembered until passed, so every octet is scanned once per needle.
func (d *Deframer) Feed(data []byte) error {
	flag, esc := -1, -1
	for i := 0; i < len(data); {
		if flag < i {
			flag = indexFrom(data, i, hdlcFlag)
		}
		if !d.inFrame {
			// Inter-frame noise (e.g. modem "CONNECT" text) is ignored.
			if i = flag; i == len(data) {
				return nil
			}
		}
		switch b := data[i]; {
		case b == hdlcFlag:
			if d.inFrame && len(d.buf) > 0 {
				d.finish()
			}
			d.inFrame = true
			d.escaped = false
			d.buf = d.buf[:0]
			i++
			continue
		case b == hdlcEscape:
			if i+1 < len(data) && data[i+1] != hdlcFlag && data[i+1] != hdlcEscape {
				// The escaped octet is in this chunk: take the pair at once.
				d.buf = append(d.buf, data[i+1]^hdlcXOR)
				d.escaped = false
				i += 2
				break
			}
			d.escaped = true
			i++
			continue
		case d.escaped:
			d.buf = append(d.buf, b^hdlcXOR)
			d.escaped = false
			i++
		default:
			if esc < i {
				esc = indexFrom(data, i, hdlcEscape)
			}
			end := min(flag, esc, i+maxFrame+1-len(d.buf))
			d.buf = append(d.buf, data[i:end]...)
			i = end
		}
		if len(d.buf) > maxFrame {
			d.buf = d.buf[:0]
			d.inFrame = false
			return ErrOversizedFrame
		}
	}
	return nil
}

func (d *Deframer) finish() {
	defer func() { d.buf = d.buf[:0] }()
	// Minimum frame: address + control + protocol(2) + FCS(2).
	if len(d.buf) < 6 {
		d.Runts++
		return
	}
	if fcs16(fcsInit, d.buf) != fcsGood {
		d.FCSErrors++
		if d.OnFCSError != nil {
			d.OnFCSError()
		}
		return
	}
	payload := d.buf[:len(d.buf)-2] // strip FCS
	if payload[0] != hdlcAddress || payload[1] != hdlcControl {
		// Address/control field compression is not negotiated; frames
		// without the expected header are discarded.
		d.Runts++
		return
	}
	d.Frames++
	if d.OnFrame != nil {
		if d.Borrow {
			d.OnFrame(payload[2:])
		} else {
			d.OnFrame(append([]byte(nil), payload[2:]...))
		}
	}
}
