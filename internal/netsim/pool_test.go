package netsim

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/onelab/umtslab/internal/bufpool"
)

// The tests below toggle bufpool's package-level switches, so none of
// them may run in parallel; each restores the previous setting.

func dirtyPacket() *Packet {
	p := NewPacket()
	*p = Packet{
		Src: MustAddr("10.0.0.1"), Dst: MustAddr("10.0.0.2"), Proto: ProtoUDP,
		TTL: 7, TOS: 0xb8, ID: 99, SrcPort: 5000, DstPort: 9000,
		Payload: []byte("stale"), Mark: 0x1, SliceCtx: 501, InIface: "ppp0",
	}
	return p
}

// TestReissuedPacketIsZeroed: whatever a released packet carried, the
// packet NewPacket hands out next — recycled or fresh — is the zero
// value, so no fwmark, slice attribution or ingress name leaks into
// routing or netfilter.
func TestReissuedPacketIsZeroed(t *testing.T) {
	reused := 0
	for i := 0; i < 100; i++ {
		p := dirtyPacket()
		ReleasePacket(p)
		q := NewPacket()
		if q == p {
			reused++
		}
		if !reflect.DeepEqual(*q, Packet{}) {
			t.Fatalf("NewPacket returned a dirty packet: %+v", q)
		}
	}
	if reused == 0 {
		t.Fatal("no released packet was ever reissued")
	}
}

func TestDoubleReleaseDetected(t *testing.T) {
	bufpool.SetDebugDoublePut(true)
	defer bufpool.SetDebugDoublePut(false)

	p := dirtyPacket()
	ReleasePacket(p)
	// A distinct packet, even one built without NewPacket, is fine.
	ReleasePacket(&Packet{Mark: 3})

	defer func() {
		if recover() == nil {
			t.Fatal("second ReleasePacket of the same packet did not panic")
		}
	}()
	ReleasePacket(p)
}

// TestDoubleReleaseIgnoredByDefault: without the detector a second
// release of a parked packet is a no-op, so the packet cannot be handed
// out twice.
func TestDoubleReleaseIgnoredByDefault(t *testing.T) {
	p := dirtyPacket()
	ReleasePacket(p)
	ReleasePacket(p)
	a, b := NewPacket(), NewPacket()
	if a == b {
		t.Fatal("a doubly released packet was handed out twice")
	}
}

// TestSetDisabledBypassesPacketPool: with bufpool off, the packet pool
// is off too — every NewPacket allocates and ReleasePacket is a no-op —
// so the allocating baseline measures no recycling at all.
func TestSetDisabledBypassesPacketPool(t *testing.T) {
	parked := dirtyPacket()
	ReleasePacket(parked)

	bufpool.SetDisabled(true)
	defer bufpool.SetDisabled(false)
	p := dirtyPacket()
	ReleasePacket(p)
	if p.Mark != 0x1 || p.InIface != "ppp0" {
		t.Fatalf("disabled ReleasePacket touched the packet: %+v", p)
	}
	for i := 0; i < 10; i++ {
		if q := NewPacket(); q == p || q == parked {
			t.Fatal("disabled packet pool handed out a recycled packet")
		}
	}
}

// TestPacketFitsItsAllocationClass: Packet is drawn once per packet on
// every unpooled path; the release marker must not push it from the
// 112-byte size class into the 128-byte one.
func TestPacketFitsItsAllocationClass(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 112 {
		t.Fatalf("Packet is %d bytes, want <= 112", n)
	}
}
