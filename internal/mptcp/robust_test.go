package mptcp

import (
	"testing"
	"time"

	"repro/internal/tcp"
)

// TestDataFINSurvivesSubflowDeath: the DATA_FIN is scheduled like any other
// mapping; if its carrier subflow dies, the close must still complete via
// reinjection on the surviving subflow.
func TestDataFINSurvivesSubflowDeath(t *testing.T) {
	p0, p1 := fastPaths()
	r := newRig(t, 40, p0, p1, Config{TCP: tcp.Config{MaxBackoffs: 3}})
	r.sim.Run()
	r.client.OpenSubflow(r.net.ClientAddrs[1], 0, r.net.ServerAddr, 80, false)
	r.sim.Run()
	r.client.Write(100_000)
	r.client.Close()
	// Cut path 0 while the close drains.
	r.net.Path[0].SetLoss(1.0)
	r.sim.Run()
	if !r.peerFin {
		t.Fatal("DATA_FIN lost with its subflow")
	}
	if r.rcvTotal != 100_000 {
		t.Fatalf("received %d", r.rcvTotal)
	}
	if !r.client.Closed() || !r.server.Closed() {
		t.Fatal("close did not complete after subflow death")
	}
}

// TestLIACongestionAvoidanceCoupling verifies RFC 6356's core property at
// the controller level: in congestion avoidance, the combined increase of
// two equal-RTT coupled subflows per window of ACKs stays at roughly ONE
// MSS (a single TCP's aggressiveness), where two independent Renos gain
// two.
func TestLIACongestionAvoidanceCoupling(t *testing.T) {
	const mss = 1000
	g := newCoupledGroup(mss, 10)
	a := g.newCong(mss, 10).(*liaCong)
	b := g.newCong(mss, 10).(*liaCong)
	rtt := func() time.Duration { return 50 * time.Millisecond }
	a.srtt, b.srtt = rtt, rtt
	// Force congestion-avoidance at 30 kB windows.
	for _, lc := range []*liaCong{a, b} {
		lc.cwnd = 30 * mss
		lc.ssthresh = lc.cwnd / 2
	}
	before := a.Cwnd() + b.Cwnd()
	// One full window of ACKs on each subflow.
	for i := 0; i < 30; i++ {
		a.OnAck(mss, a.Cwnd())
		b.OnAck(mss, b.Cwnd())
	}
	growth := a.Cwnd() + b.Cwnd() - before
	// Two Renos would add ≈ 2*mss; coupling must keep it ≈ 1*mss.
	if growth > mss+mss/4 {
		t.Fatalf("coupled growth %dB per RTT, want ≈ %dB (one MSS)", growth, mss)
	}
	if growth < mss/4 {
		t.Fatalf("coupled growth %dB per RTT: starved", growth)
	}
	// Loss responses stay per-subflow.
	a.OnDupAckLoss(30 * mss)
	if a.Cwnd() != 15*mss {
		t.Fatalf("halving wrong: %d", a.Cwnd())
	}
	if b.Cwnd() < 30*mss {
		t.Fatalf("peer subflow punished for a's loss: %d", b.Cwnd())
	}
	a.OnRTO(15 * mss)
	if a.Cwnd() != mss {
		t.Fatalf("RTO collapse wrong: %d", a.Cwnd())
	}
}

// TestManyConnectionsOneEndpoint: a path manager serves every connection of
// the endpoint ("manage the connections established by several
// applications").
func TestManyConnectionsOneEndpoint(t *testing.T) {
	p0, p1 := fastPaths()
	r := newRig(t, 42, p0, p1, Config{})
	var accepted int
	r.sep.Listen(81, func(c *Connection) { accepted++ })
	r.sep.Listen(82, func(c *Connection) { accepted++ })
	for _, port := range []uint16{81, 82, 81, 82, 81} {
		if _, err := r.cep.Connect(r.net.ClientAddrs[0], r.net.ServerAddr, port, ConnCallbacks{}); err != nil {
			t.Fatal(err)
		}
	}
	r.sim.Run()
	if accepted != 5 {
		t.Fatalf("accepted %d, want 5", accepted)
	}
	// +1 for the rig's own connection on :80.
	if got := len(r.cep.Conns()); got != 6 {
		t.Fatalf("client endpoint tracks %d conns", got)
	}
	if r.cpm.created != 6 || r.cpm.estab != 6 {
		t.Fatalf("PM events: created=%d estab=%d", r.cpm.created, r.cpm.estab)
	}
}

// TestDuplicateJoinTupleRejected: opening the same 4-tuple twice must fail
// cleanly instead of corrupting the demux table.
func TestDuplicateJoinTupleRejected(t *testing.T) {
	p0, p1 := fastPaths()
	r := newRig(t, 43, p0, p1, Config{})
	r.sim.Run()
	sf, err := r.client.OpenSubflow(r.net.ClientAddrs[1], 45000, r.net.ServerAddr, 80, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.OpenSubflow(r.net.ClientAddrs[1], 45000, r.net.ServerAddr, 80, false); err == nil {
		t.Fatal("duplicate tuple accepted")
	}
	r.sim.Run()
	if !sf.Established() {
		t.Fatal("original subflow harmed by the duplicate attempt")
	}
}

// TestJoinBeforeEstablishRejected: OpenSubflow before the MP_CAPABLE
// handshake completes must fail (no keys to authenticate the join yet).
func TestJoinBeforeEstablishRejected(t *testing.T) {
	p0, p1 := fastPaths()
	r := newRig(t, 44, p0, p1, Config{})
	// No Run(): the connection is still in SYN_SENT.
	if _, err := r.client.OpenSubflow(r.net.ClientAddrs[1], 0, r.net.ServerAddr, 80, false); err == nil {
		t.Fatal("join accepted before establishment")
	}
}

// TestReinjectionHeadOnlyOnTimeout: an RTO reinjects only the head-of-line
// mapping, not the whole queue — the §4.3 pathology depends on it.
func TestReinjectionHeadOnlyOnTimeout(t *testing.T) {
	p0, p1 := fastPaths()
	r := newRig(t, 45, p0, p1, Config{TCP: tcp.Config{MSS: 1000}})
	r.sim.Run()
	r.client.OpenSubflow(r.net.ClientAddrs[1], 0, r.net.ServerAddr, 80, false)
	r.sim.Run()
	r.client.Write(1 << 20)
	r.sim.RunFor(20 * time.Millisecond)
	r.net.Path[0].SetLoss(1.0) // black-hole the primary mid-transfer
	r.sim.RunFor(2 * time.Second)
	// Only ~1 chunk per RTO expiry may have been reinjected while the
	// subflow lives (death reinjets wholesale, but MaxBackoffs=15 default
	// keeps it alive here).
	re := r.client.Stats().BytesReinjected
	timeouts := uint64(r.cpm.timeouts)
	if re == 0 {
		t.Fatal("no reinjection at all")
	}
	if re > (timeouts+2)*1000 {
		t.Fatalf("reinjected %d bytes over %d timeouts: more than head-only", re, timeouts)
	}
}
