package netfilter

import (
	"net/netip"
	"strings"
	"testing"

	"github.com/onelab/umtslab/internal/netsim"
	"github.com/onelab/umtslab/internal/sim"
)

func newStack(t *testing.T) (*sim.Loop, *netsim.Node, *Stack) {
	t.Helper()
	loop := sim.NewLoop(1)
	n := netsim.NewNode(loop, "host")
	n.AddIface("eth0", netsim.MustAddr("10.0.0.1"), netsim.MustPrefix("10.0.0.0/24"))
	n.AddIface("ppp0", netsim.MustAddr("10.133.7.42"), netip.Prefix{})
	return loop, n, New(n)
}

func testPkt() *netsim.Packet {
	return &netsim.Packet{
		Src: netsim.MustAddr("10.0.0.1"), Dst: netsim.MustAddr("192.0.2.10"),
		Proto: netsim.ProtoUDP, SrcPort: 4000, DstPort: 9000, Payload: make([]byte, 100),
	}
}

func TestMarkTargetSetsMarkAndContinues(t *testing.T) {
	_, n, s := newStack(t)
	s.Append(TableMangle, ChainOutput, Rule{
		Match: Match{SliceCtx: 77, SliceSet: true}, Target: TargetMark, MarkValue: 5,
	})
	hit := false
	s.Append(TableMangle, ChainOutput, Rule{
		Match: Match{MarkSet: true, Mark: 5}, Target: TargetAccept, Comment: "after mark",
	})
	_ = hit
	p := testPkt()
	p.SliceCtx = 77
	v := s.Traverse(TableMangle, ChainOutput, p, nil)
	if v != netsim.VerdictAccept {
		t.Fatal("mark chain should accept")
	}
	if p.Mark != 5 {
		t.Fatalf("Mark = %d, want 5", p.Mark)
	}
	rules := s.Rules(TableMangle, ChainOutput)
	if rules[1].Packets != 1 {
		t.Fatal("traversal should continue after MARK and hit the next rule")
	}
	_ = n
}

func TestDropTarget(t *testing.T) {
	_, _, s := newStack(t)
	s.Append(TableFilter, ChainPostRouting, Rule{
		Match: Match{OutIface: "ppp0"}, Target: TargetDrop,
	})
	p := testPkt()
	outIface := &netsim.Iface{Name: "ppp0"}
	if v := s.Traverse(TableFilter, ChainPostRouting, p, outIface); v != netsim.VerdictDrop {
		t.Fatal("should drop on ppp0")
	}
	eth := &netsim.Iface{Name: "eth0"}
	if v := s.Traverse(TableFilter, ChainPostRouting, p, eth); v != netsim.VerdictAccept {
		t.Fatal("rule matches only ppp0; eth0 should accept")
	}
}

func TestDropCountsAndVerdicts(t *testing.T) {
	_, _, s := newStack(t)
	rp, _ := s.Append(TableFilter, ChainOutput, Rule{
		Match: Match{DstPort: 9000}, Target: TargetDrop,
	})
	p := testPkt()
	if s.Traverse(TableFilter, ChainOutput, p, nil) != netsim.VerdictDrop {
		t.Fatal("want drop")
	}
	if rp.Packets != 1 || rp.Bytes != uint64(p.Length()) {
		t.Fatalf("counters = %d/%d", rp.Packets, rp.Bytes)
	}
	if s.DroppedTotal != 1 {
		t.Fatalf("DroppedTotal = %d", s.DroppedTotal)
	}
	p2 := testPkt()
	p2.DstPort = 53
	if s.Traverse(TableFilter, ChainOutput, p2, nil) != netsim.VerdictAccept {
		t.Fatal("non-matching packet should pass")
	}
}

func TestAcceptStopsTraversal(t *testing.T) {
	_, _, s := newStack(t)
	s.Append(TableFilter, ChainOutput, Rule{Match: Match{DstPort: 9000}, Target: TargetAccept})
	drop, _ := s.Append(TableFilter, ChainOutput, Rule{Target: TargetDrop})
	if s.Traverse(TableFilter, ChainOutput, testPkt(), nil) != netsim.VerdictAccept {
		t.Fatal("ACCEPT should win")
	}
	if drop.Packets != 0 {
		t.Fatal("rule after ACCEPT must not be evaluated")
	}
}

func TestReturnFallsToPolicy(t *testing.T) {
	_, _, s := newStack(t)
	s.Append(TableFilter, ChainOutput, Rule{Match: Match{DstPort: 9000}, Target: TargetReturn})
	s.Append(TableFilter, ChainOutput, Rule{Target: TargetDrop})
	if s.Traverse(TableFilter, ChainOutput, testPkt(), nil) != netsim.VerdictAccept {
		t.Fatal("RETURN should yield chain policy ACCEPT")
	}
}

func TestInsertOrder(t *testing.T) {
	_, _, s := newStack(t)
	s.Append(TableFilter, ChainOutput, Rule{Comment: "second", Target: TargetAccept})
	s.Insert(TableFilter, ChainOutput, Rule{Comment: "first", Target: TargetAccept})
	rules := s.Rules(TableFilter, ChainOutput)
	if rules[0].Comment != "first" || rules[1].Comment != "second" {
		t.Fatalf("insert order wrong: %v %v", rules[0].Comment, rules[1].Comment)
	}
}

func TestDelete(t *testing.T) {
	_, _, s := newStack(t)
	rp, _ := s.Append(TableFilter, ChainOutput, Rule{Target: TargetDrop})
	if err := s.Delete(TableFilter, ChainOutput, rp); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(TableFilter, ChainOutput, rp); err != ErrNoSuchRule {
		t.Fatalf("err = %v, want ErrNoSuchRule", err)
	}
	if len(s.Rules(TableFilter, ChainOutput)) != 0 {
		t.Fatal("rule not removed")
	}
}

func TestDeleteByComment(t *testing.T) {
	_, _, s := newStack(t)
	s.Append(TableMangle, ChainOutput, Rule{Comment: "umts:sliceA", Target: TargetMark, MarkValue: 1})
	s.Append(TableFilter, ChainPostRouting, Rule{Comment: "umts:sliceA", Target: TargetDrop})
	s.Append(TableFilter, ChainOutput, Rule{Comment: "other", Target: TargetAccept})
	if n := s.DeleteByComment("umts:sliceA"); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if len(s.Rules(TableFilter, ChainOutput)) != 1 {
		t.Fatal("unrelated rule removed")
	}
}

func TestBadChain(t *testing.T) {
	_, _, s := newStack(t)
	if _, err := s.Append("nat", ChainOutput, Rule{}); err == nil {
		t.Fatal("append to missing table should fail")
	}
	if err := s.Delete("nat", ChainOutput, &Rule{}); err == nil {
		t.Fatal("delete from missing table should fail")
	}
	// Traversing a missing chain accepts (fail-open like no hook).
	if s.Traverse("nat", ChainOutput, testPkt(), nil) != netsim.VerdictAccept {
		t.Fatal("missing chain should accept")
	}
}

func TestMatchCriteria(t *testing.T) {
	out := &netsim.Iface{Name: "ppp0"}
	base := testPkt()
	base.Mark = 5
	base.SliceCtx = 77
	base.InIface = "eth0"
	cases := []struct {
		name string
		m    Match
		want bool
	}{
		{"empty matches all", Match{}, true},
		{"proto", Match{Proto: netsim.ProtoUDP}, true},
		{"proto wrong", Match{Proto: netsim.ProtoTCP}, false},
		{"src", Match{Src: netsim.MustPrefix("10.0.0.0/8")}, true},
		{"src wrong", Match{Src: netsim.MustPrefix("172.16.0.0/12")}, false},
		{"dst", Match{Dst: netsim.MustPrefix("192.0.2.10/32")}, true},
		{"dst wrong", Match{Dst: netsim.MustPrefix("192.0.3.0/24")}, false},
		{"sport", Match{SrcPort: 4000}, true},
		{"sport wrong", Match{SrcPort: 4001}, false},
		{"dport", Match{DstPort: 9000}, true},
		{"dport wrong", Match{DstPort: 9001}, false},
		{"iif", Match{InIface: "eth0"}, true},
		{"iif wrong", Match{InIface: "eth1"}, false},
		{"oif", Match{OutIface: "ppp0"}, true},
		{"oif wrong", Match{OutIface: "eth0"}, false},
		{"mark", Match{Mark: 5, MarkSet: true}, true},
		{"mark wrong", Match{Mark: 6, MarkSet: true}, false},
		{"mark zero explicit", Match{Mark: 0, MarkSet: true}, false},
		{"slice", Match{SliceCtx: 77, SliceSet: true}, true},
		{"slice wrong", Match{SliceCtx: 78, SliceSet: true}, false},
		{"invert slice", Match{SliceCtx: 77, SliceSet: true, Invert: true}, false},
		{"invert slice wrong", Match{SliceCtx: 78, SliceSet: true, Invert: true}, true},
		{"combined", Match{Proto: netsim.ProtoUDP, OutIface: "ppp0", SliceCtx: 77, SliceSet: true}, true},
	}
	for _, c := range cases {
		if got := c.m.matches(base, out); got != c.want {
			t.Errorf("%s: matches = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestOutIfaceMatchWithNilOut(t *testing.T) {
	m := Match{OutIface: "ppp0"}
	if m.matches(testPkt(), nil) {
		t.Fatal("out-iface match with nil egress must be false")
	}
}

func TestHooksWiredIntoNode(t *testing.T) {
	// End-to-end through node.Send: mangle OUTPUT marks, filter
	// POSTROUTING drops everything leaving eth0 with that mark.
	loop, n, s := newStack(t)
	n.Iface("eth0").Peer = netsim.MustAddr("10.0.0.2")
	s.Append(TableMangle, ChainOutput, Rule{
		Match: Match{SliceCtx: 9, SliceSet: true}, Target: TargetMark, MarkValue: 3,
	})
	s.Append(TableFilter, ChainPostRouting, Rule{
		Match: Match{MarkSet: true, Mark: 3, OutIface: "eth0"}, Target: TargetDrop,
	})
	p := testPkt()
	p.Dst = netsim.MustAddr("10.0.0.2")
	p.SliceCtx = 9
	if err := n.Send(p); err != netsim.ErrHookDrop {
		t.Fatalf("err = %v, want hook drop", err)
	}
	q := testPkt()
	q.Dst = netsim.MustAddr("10.0.0.2")
	if err := n.Send(q); err != nil {
		t.Fatalf("unmarked packet should pass: %v", err)
	}
	loop.Run()
}

func TestDumpFormat(t *testing.T) {
	_, _, s := newStack(t)
	s.Append(TableMangle, ChainOutput, Rule{
		Match: Match{SliceCtx: 77, SliceSet: true}, Target: TargetMark, MarkValue: 5, Comment: "umts mark",
	})
	s.Append(TableFilter, ChainPostRouting, Rule{
		Match: Match{OutIface: "ppp0", SliceCtx: 77, SliceSet: true, Invert: true}, Target: TargetDrop,
	})
	d := s.Dump()
	for _, want := range []string{"*mangle", "-j MARK --set-mark 0x5", "umts mark", "-j DROP", "! ("} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}

func TestTargetString(t *testing.T) {
	if TargetAccept.String() != "ACCEPT" || TargetDrop.String() != "DROP" ||
		TargetMark.String() != "MARK" || TargetReturn.String() != "RETURN" {
		t.Fatal("target strings wrong")
	}
	if Target(42).String() != "target(42)" {
		t.Fatal("unknown target string wrong")
	}
}

// TestEachHookTraversesItsChains pins the hook-to-chain wiring: every
// node hook evaluates exactly the standard chains named for it, in
// mangle-then-filter order, and nothing else.
func TestEachHookTraversesItsChains(t *testing.T) {
	_, n, s := newStack(t)
	type tc struct{ table, chain string }
	all := []tc{
		{TableMangle, ChainOutput}, {TableMangle, ChainPreRouting}, {TableMangle, ChainPostRouting},
		{TableFilter, ChainOutput}, {TableFilter, ChainInput}, {TableFilter, ChainForward},
		{TableFilter, ChainPostRouting},
	}
	rules := map[tc]*Rule{}
	for i, c := range all {
		r, err := s.Append(c.table, c.chain, Rule{Target: TargetMark, MarkValue: uint32(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		rules[c] = r
	}
	hooks := []struct {
		name string
		fn   netsim.HookFunc
		want []tc // in traversal order; the last one's mark sticks
	}{
		{"output", n.Hooks.Output, []tc{{TableMangle, ChainOutput}, {TableFilter, ChainOutput}}},
		{"postrouting", n.Hooks.PostRouting, []tc{{TableMangle, ChainPostRouting}, {TableFilter, ChainPostRouting}}},
		{"prerouting", n.Hooks.PreRouting, []tc{{TableMangle, ChainPreRouting}}},
		{"input", n.Hooks.Input, []tc{{TableFilter, ChainInput}}},
		{"forward", n.Hooks.Forward, []tc{{TableFilter, ChainForward}}},
	}
	for _, h := range hooks {
		before := map[tc]uint64{}
		for c, r := range rules {
			before[c] = r.Packets
		}
		p := testPkt()
		if h.fn(p, nil) != netsim.VerdictAccept {
			t.Fatalf("%s: MARK rules must not drop", h.name)
		}
		for c, r := range rules {
			hit := false
			for _, w := range h.want {
				hit = hit || w == c
			}
			if got := r.Packets - before[c]; (got == 1) != hit || got > 1 {
				t.Errorf("%s hook: %s/%s counted %d packets, want hit=%v", h.name, c.table, c.chain, got, hit)
			}
		}
		if last := rules[h.want[len(h.want)-1]]; p.Mark != last.MarkValue {
			t.Errorf("%s hook: mark %d, want %d from the last chain", h.name, p.Mark, last.MarkValue)
		}
	}
}
