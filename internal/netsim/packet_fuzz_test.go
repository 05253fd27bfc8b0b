package netsim

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/onelab/umtslab/internal/bufpool"
	"github.com/onelab/umtslab/internal/metrics"
)

// FuzzUnmarshal feeds arbitrary bytes to the IPv4 parser, which reads
// whatever the PPP peer or a faulted link delivers. Properties: no
// input panics it; every accepted packet re-marshals with AppendMarshal
// and decodes back equal; decoding into a dirty recycled packet (stale
// metadata and payload, pooled payload buffers) gives exactly the fresh
// decode; and a rejected input leaves the target packet untouched.
func FuzzUnmarshal(f *testing.F) {
	udp := udpPacket(5000, 9000, []byte("voice frame"))
	f.Add(udp.Marshal())
	tcp := udpPacket(80, 4242, bytes.Repeat([]byte{0x7e}, 40))
	tcp.Proto = ProtoTCP
	f.Add(tcp.Marshal())
	icmp := NewEchoRequest(MustAddr("10.0.0.1"), MustAddr("10.0.0.2"), 7, 1, []byte("ping"))
	f.Add(icmp.Marshal())
	f.Add(udp.Marshal()[:IPv4HeaderLen+3])
	// IHL 6: one option word, checksum fixed up.
	opt := udp.Marshal()
	opt = append(opt[:IPv4HeaderLen:IPv4HeaderLen], append([]byte{1, 1, 1, 0}, opt[IPv4HeaderLen:]...)...)
	opt[0] = 0x46
	binary.BigEndian.PutUint16(opt[2:], uint16(len(opt)))
	opt[10], opt[11] = 0, 0
	binary.BigEndian.PutUint16(opt[10:], ipChecksum(opt[:24]))
	f.Add(opt)
	f.Add([]byte{0x45})

	pool := bufpool.New(metrics.NewRegistry())
	f.Fuzz(func(t *testing.T, b []byte) {
		fresh, err := Unmarshal(b)
		dirty := &Packet{
			Src: MustAddr("192.0.2.1"), TTL: 3, ID: 0xbeef, SrcPort: 1,
			Payload: []byte{0xde, 0xad},
			Mark:    0xffff, SliceCtx: 42, InIface: "stale0",
		}
		before := dirty.Clone()
		errInto := UnmarshalInto(dirty, b, pool)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("Unmarshal err %v, UnmarshalInto err %v", err, errInto)
		}
		if err != nil {
			if !reflect.DeepEqual(dirty, before) {
				t.Fatalf("rejected input modified the target: %+v", dirty)
			}
			return
		}
		if !reflect.DeepEqual(dirty, fresh) {
			t.Fatalf("decode into a dirty packet %+v differs from a fresh decode %+v", dirty, fresh)
		}
		pool.Put(dirty.Payload)

		wire := fresh.AppendMarshal(pool.Get(64)[:0])
		again, err := UnmarshalPooled(wire, pool)
		if err != nil {
			t.Fatalf("re-marshalled packet rejected: %v (%x)", err, wire)
		}
		if !reflect.DeepEqual(again, fresh) {
			t.Fatalf("round trip %+v, want %+v", again, fresh)
		}
		pool.Put(wire)
		pool.Put(again.Payload)
		ReleasePacket(again)
	})
}
