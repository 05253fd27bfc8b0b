// Package netsim implements the packet-level network substrate used by the
// reproduction: IPv4/UDP packets with real header marshalling, network
// interfaces, rate/delay/loss links with drop-tail queues, and nodes with
// pluggable routing and netfilter-style hooks.
//
// The substrate is event-driven on a sim.Loop, so a whole testbed (hosts,
// routers, the UMTS radio path) advances deterministically in virtual time.
package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"

	"github.com/onelab/umtslab/internal/bufpool"
)

// Proto is an IPv4 protocol number.
type Proto uint8

// Protocol numbers used by the testbed.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Header sizes in bytes. The simulator uses fixed 20-byte IPv4 headers
// (no options).
const (
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
)

// Packet is an IPv4 datagram in flight, together with node-local metadata
// that in a real kernel would live in the skb (and which therefore does
// NOT survive Marshal/Unmarshal across a byte-level path such as PPP).
type Packet struct {
	// Wire fields.
	Src, Dst netip.Addr
	Proto    Proto
	TTL      uint8
	TOS      uint8
	ID       uint16
	SrcPort  uint16 // UDP/TCP only
	DstPort  uint16 // UDP/TCP only
	// pooled marks a packet parked by ReleasePacket. It sits here, in
	// the wire fields' alignment padding, to keep Packet in the 112-byte
	// allocation class.
	pooled  bool
	Payload []byte

	// Node-local metadata (skb analog): never serialized.
	Mark     uint32 // netfilter fwmark
	SliceCtx uint32 // VNET+ slice attribution (security context id)
	InIface  string // ingress interface name, set on receive
}

// packetPool recycles Packet structs along the data path. The layer that
// terminates a packet — the byte-path link that marshals it, the link
// that drops it, the ITG endpoint that logs it — hands it back with
// ReleasePacket, and the creation sites draw with NewPacket. It is a
// sync.Pool rather than a per-loop list because a packet may cross
// shards (CrossLink hands it over by pointer) and be released on a
// different loop's goroutine than the one that drew it.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// NewPacket returns a zeroed packet, recycled when one is available.
// Packets built with a composite literal are equally valid everywhere.
func NewPacket() *Packet {
	if bufpool.Disabled() {
		return new(Packet)
	}
	p := packetPool.Get().(*Packet)
	p.pooled = false
	return p
}

// ReleasePacket zeroes p and parks it for reuse by NewPacket. The caller
// must own p and not touch it afterwards; its payload is not recycled
// (Put it to the loop's buffer pool first when it came from there).
// Release is optional: a packet that is dropped without it is simply
// collected. Zeroing means no node-local metadata (Mark, SliceCtx,
// InIface) of a finished packet can reach routing or netfilter through
// a reissued one. A second release of a packet still parked is ignored,
// or panics while bufpool's double-Put detector is on.
func ReleasePacket(p *Packet) {
	if p == nil || bufpool.Disabled() {
		return
	}
	if p.pooled {
		if bufpool.DebugDoublePut() {
			panic("netsim: double ReleasePacket")
		}
		return
	}
	*p = Packet{pooled: true}
	packetPool.Put(p)
}

// Length returns the total on-wire IPv4 length of the packet in bytes.
func (p *Packet) Length() int {
	n := IPv4HeaderLen + len(p.Payload)
	if p.Proto == ProtoUDP || p.Proto == ProtoTCP {
		n += UDPHeaderLen
	}
	return n
}

// Clone returns a deep copy of the packet, including local metadata.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Payload = append([]byte(nil), p.Payload...)
	q.pooled = false
	return &q
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s %s:%d > %s:%d len=%d mark=%#x slice=%d",
		p.Proto, p.Src, p.SrcPort, p.Dst, p.DstPort, p.Length(), p.Mark, p.SliceCtx)
}

// FlowKey identifies a unidirectional transport flow.
type FlowKey struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Proto            Proto
}

// Flow returns the packet's flow key.
func (p *Packet) Flow() FlowKey {
	return FlowKey{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// Reverse returns the key of the opposite direction of the flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Errors returned by Unmarshal.
var (
	ErrTruncated   = errors.New("netsim: truncated packet")
	ErrBadVersion  = errors.New("netsim: not an IPv4 packet")
	ErrBadChecksum = errors.New("netsim: bad IPv4 header checksum")
	ErrBadLength   = errors.New("netsim: inconsistent length fields")
)

// Marshal serializes the packet to real IPv4 (+UDP) wire format. This is
// the representation carried over byte-level paths (the PPP link).
func (p *Packet) Marshal() []byte {
	return p.AppendMarshal(make([]byte, 0, p.Length()))
}

// AppendMarshal appends the wire format to dst and returns the extended
// slice. dst is typically the empty slice of a recycled buffer; every
// wire byte is written explicitly (including the zero UDP checksum), so
// recycled garbage never leaks onto the wire.
func (p *Packet) AppendMarshal(dst []byte) []byte {
	total := p.Length()
	start := len(dst)
	for cap(dst) < start+total {
		dst = append(dst[:cap(dst)], 0)
	}
	dst = dst[:start+total]
	b := dst[start:]
	b[0] = 0x45 // version 4, IHL 5
	b[1] = p.TOS
	binary.BigEndian.PutUint16(b[2:], uint16(total))
	binary.BigEndian.PutUint16(b[4:], p.ID)
	// flags+fragment offset: DF set, no fragmentation in the simulator
	binary.BigEndian.PutUint16(b[6:], 0x4000)
	b[8] = p.TTL
	b[9] = uint8(p.Proto)
	// Zero the checksum field before summing: a recycled buffer carries
	// whatever the previous user left there.
	b[10] = 0
	b[11] = 0
	srcA := p.Src.As4()
	dstA := p.Dst.As4()
	copy(b[12:16], srcA[:])
	copy(b[16:20], dstA[:])
	binary.BigEndian.PutUint16(b[10:], ipChecksum(b[:IPv4HeaderLen]))

	off := IPv4HeaderLen
	if p.Proto == ProtoUDP || p.Proto == ProtoTCP {
		binary.BigEndian.PutUint16(b[off:], p.SrcPort)
		binary.BigEndian.PutUint16(b[off+2:], p.DstPort)
		binary.BigEndian.PutUint16(b[off+4:], uint16(UDPHeaderLen+len(p.Payload)))
		// UDP checksum zero (legal for IPv4); the simulated radio link
		// delivers frames intact or not at all. Written explicitly: a
		// recycled buffer is not pre-zeroed.
		b[off+6] = 0
		b[off+7] = 0
		off += UDPHeaderLen
	}
	copy(b[off:], p.Payload)
	return dst
}

// Unmarshal parses wire bytes into a Packet. Local metadata fields are
// zero: attribution does not cross a wire.
func Unmarshal(b []byte) (*Packet, error) { return UnmarshalPooled(b, nil) }

// UnmarshalPooled is Unmarshal drawing the packet from NewPacket and the
// payload copy from pool (when non-nil) instead of the allocator. The
// consumer that terminates the packet may hand the payload back with
// pool.Put and the packet with ReleasePacket — itg receivers do.
func UnmarshalPooled(b []byte, pool *bufpool.Pool) (*Packet, error) {
	p := NewPacket()
	if err := UnmarshalInto(p, b, pool); err != nil {
		ReleasePacket(p)
		return nil, err
	}
	return p, nil
}

// UnmarshalInto parses wire bytes into p, overwriting every field:
// local metadata is zeroed and any previous payload is dropped, not
// recycled. The payload copy is drawn from pool when non-nil. On error p
// is left unchanged.
func UnmarshalInto(p *Packet, b []byte, pool *bufpool.Pool) error {
	if len(b) < IPv4HeaderLen {
		return ErrTruncated
	}
	if b[0]>>4 != 4 {
		return ErrBadVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return ErrTruncated
	}
	if ipChecksum(b[:ihl]) != 0 {
		return ErrBadChecksum
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total < ihl || total > len(b) {
		return ErrBadLength
	}
	proto := Proto(b[9])
	rest := b[ihl:total]
	var srcPort, dstPort uint16
	if proto == ProtoUDP || proto == ProtoTCP {
		if len(rest) < UDPHeaderLen {
			return ErrTruncated
		}
		srcPort = binary.BigEndian.Uint16(rest[0:])
		dstPort = binary.BigEndian.Uint16(rest[2:])
		ulen := int(binary.BigEndian.Uint16(rest[4:]))
		if ulen < UDPHeaderLen || ulen > len(rest) {
			return ErrBadLength
		}
		rest = rest[UDPHeaderLen:ulen]
	}
	*p = Packet{
		TOS:     b[1],
		ID:      binary.BigEndian.Uint16(b[4:]),
		TTL:     b[8],
		Proto:   proto,
		Src:     netip.AddrFrom4([4]byte(b[12:16])),
		Dst:     netip.AddrFrom4([4]byte(b[16:20])),
		SrcPort: srcPort,
		DstPort: dstPort,
		Payload: copyPayload(rest, pool),
	}
	return nil
}

func copyPayload(src []byte, pool *bufpool.Pool) []byte {
	var dst []byte
	if pool != nil {
		dst = pool.Get(len(src))
	} else {
		dst = make([]byte, len(src))
	}
	copy(dst, src)
	return dst
}

// ipChecksum computes the RFC 791 header checksum. Computing it over a
// header with a correct checksum in place yields zero.
func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// MustAddr parses an IPv4 address, panicking on error. For test and
// topology-construction code.
func MustAddr(s string) netip.Addr {
	a, err := netip.ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// MustPrefix parses a CIDR prefix, panicking on error.
func MustPrefix(s string) netip.Prefix {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}
