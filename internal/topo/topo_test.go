package topo

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/seg"
	"repro/internal/sim"
)

// echo is a node recording what reached it.
type echo struct {
	name string
	got  []*netem.Packet
}

func (e *echo) Input(p *netem.Packet) { e.got = append(e.got, p) }
func (e *echo) Name() string          { return e.name }

func pkt(src, dst seg.FourTuple) *netem.Packet {
	return netem.NewPacket(&seg.Segment{Tuple: src, Flags: seg.ACK, PayloadLen: 100})
}

func TestTwoPathConnectivity(t *testing.T) {
	s := sim.NewWorld(1, 1)
	cfg := netem.LinkConfig{RateBps: 10e6, Delay: 5 * time.Millisecond}
	n := NewTwoPath(s, cfg, cfg)
	var clientGot, serverGot int
	n.Client.SetHandler(func(*netem.Packet) { clientGot++ })
	n.Server.SetHandler(func(*netem.Packet) { serverGot++ })

	// Client → server from both interfaces.
	for _, src := range n.ClientAddrs {
		n.Client.Send(netem.NewPacket(&seg.Segment{
			Tuple: seg.FourTuple{SrcIP: src, DstIP: n.ServerAddr, SrcPort: 1, DstPort: 2},
			Flags: seg.ACK, PayloadLen: 10,
		}))
	}
	// Server → client, both destinations.
	for _, dst := range n.ClientAddrs {
		n.Server.Send(netem.NewPacket(&seg.Segment{
			Tuple: seg.FourTuple{SrcIP: n.ServerAddr, DstIP: dst, SrcPort: 2, DstPort: 1},
			Flags: seg.ACK, PayloadLen: 10,
		}))
	}
	s.Run()
	if serverGot != 2 || clientGot != 2 {
		t.Fatalf("connectivity: server=%d client=%d", serverGot, clientGot)
	}
	// Return traffic to each client address used its own path.
	if n.Path[0].BA.Stats.Sent != 1 || n.Path[1].BA.Stats.Sent != 1 {
		t.Fatalf("return routing: path0=%d path1=%d",
			n.Path[0].BA.Stats.Sent, n.Path[1].BA.Stats.Sent)
	}
}

func TestECMPSymmetryAndCoverage(t *testing.T) {
	s := sim.NewWorld(2, 1)
	var cfgs []netem.LinkConfig
	for i := 0; i < 4; i++ {
		cfgs = append(cfgs, netem.LinkConfig{RateBps: 8e6, Delay: 10 * time.Millisecond})
	}
	n := NewECMP(s, cfgs, 9)
	var serverGot, clientGot int
	n.Client.SetHandler(func(*netem.Packet) { clientGot++ })
	n.Server.SetHandler(func(*netem.Packet) { serverGot++ })

	// Many flows: forward and return packets of the same flow must use
	// the same physical path, and all four paths must see traffic.
	for port := uint16(10000); port < 10200; port++ {
		fwd := seg.FourTuple{SrcIP: n.ClientAddr, DstIP: n.ServerAddr, SrcPort: port, DstPort: 80}
		// Spaced out so bursts do not overflow the access-link queue.
		s.ScheduleGlobal(sim.Time(port-10000)*sim.Millisecond, "inject", func() {
			n.Client.Send(netem.NewPacket(&seg.Segment{Tuple: fwd, Flags: seg.ACK, PayloadLen: 10}))
			n.Server.Send(netem.NewPacket(&seg.Segment{Tuple: fwd.Reverse(), Flags: seg.ACK, PayloadLen: 10}))
		})
	}
	s.Run()
	if serverGot != 200 || clientGot != 200 {
		t.Fatalf("connectivity: server=%d client=%d", serverGot, clientGot)
	}
	for i, d := range n.Paths {
		if d.AB.Stats.Sent != d.BA.Stats.Sent {
			t.Fatalf("path %d asymmetric: fwd=%d rev=%d", i, d.AB.Stats.Sent, d.BA.Stats.Sent)
		}
		if d.AB.Stats.Sent == 0 {
			t.Fatalf("path %d unused by 200 flows", i)
		}
	}
	// PathIndexOf agrees with itself and spans all paths.
	seen := map[int]bool{}
	for port := uint16(10000); port < 10200; port++ {
		idx := n.PathIndexOf(port, 80)
		if idx != n.PathIndexOf(port, 80) {
			t.Fatal("PathIndexOf unstable")
		}
		seen[idx] = true
	}
	if len(seen) != 4 {
		t.Fatalf("PathIndexOf covered %d paths", len(seen))
	}
}

func TestDirectLatency(t *testing.T) {
	s := sim.NewWorld(3, 1)
	n := NewDirect(s, netem.LinkConfig{RateBps: 1e9, Delay: 20 * time.Microsecond})
	var at sim.Time
	n.Server.SetHandler(func(*netem.Packet) { at = n.Server.Clock().Now() })
	n.Client.Send(netem.NewPacket(&seg.Segment{
		Tuple: seg.FourTuple{SrcIP: n.ClientAddr, DstIP: n.ServerAddr, SrcPort: 1, DstPort: 2},
		Flags: seg.ACK,
	}))
	s.Run()
	// 60-byte frame at 1 Gbps serialises in 0.48 µs + 20 µs propagation.
	if at < 20*sim.Microsecond || at > 22*sim.Microsecond {
		t.Fatalf("delivery at %v", at)
	}
}

func TestNATPathEnforcesTimeout(t *testing.T) {
	s := sim.NewWorld(4, 1)
	cfg := netem.LinkConfig{RateBps: 10e6, Delay: 5 * time.Millisecond}
	n := NewNATPath(s, cfg, cfg, 100*time.Second, netem.ExpiryDrop)
	got := 0
	n.Server.SetHandler(func(*netem.Packet) { got++ })
	ft := seg.FourTuple{SrcIP: n.ClientAddrs[0], DstIP: n.ServerAddr, SrcPort: 5, DstPort: 80}
	n.Client.Send(netem.NewPacket(&seg.Segment{Tuple: ft, Flags: seg.SYN}))
	s.Run()
	if got != 1 {
		t.Fatalf("SYN not forwarded: %d", got)
	}
	s.RunFor(200 * time.Second) // silence beyond the timeout
	n.Client.Send(netem.NewPacket(&seg.Segment{Tuple: ft, Flags: seg.ACK, PayloadLen: 10}))
	s.Run()
	if got != 1 {
		t.Fatal("expired NAT state passed traffic")
	}
	if n.NAT.Stats.Expired != 1 {
		t.Fatalf("expiries = %d", n.NAT.Stats.Expired)
	}
}
