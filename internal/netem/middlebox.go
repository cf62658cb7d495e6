package netem

import (
	"net/netip"
	"time"

	"repro/internal/seg"
	"repro/internal/sim"
)

// ExpiryPolicy selects what a Middlebox does with packets of a flow whose
// state it has expired.
type ExpiryPolicy int

// Expiry policies observed in deployed NATs/firewalls (Hätönen et al.,
// cited as [9] in the paper): most devices silently drop, some answer RST.
const (
	ExpiryDrop ExpiryPolicy = iota
	ExpiryRST
)

// MiddleboxStats counts middlebox activity.
type MiddleboxStats struct {
	Forwarded   uint64
	Expired     uint64 // packets hitting expired state
	RSTInjected uint64
	FlowsSeen   uint64
}

// Middlebox is a transparent stateful NAT/firewall: it forwards packets by
// destination, tracks per-flow state keyed by the canonicalised 4-tuple,
// and expires state after an idle timeout. §4.1 of the paper is about
// keeping long-lived connections alive through exactly this device: many
// deployed boxes expire idle state after a few hundred seconds even though
// the IETF recommends ≥ 2h04m.
type Middlebox struct {
	clock       *sim.Clock
	name        string
	routes      map[netip.Addr]*Link
	idleTimeout time.Duration
	policy      ExpiryPolicy
	flows       map[flowKey]sim.Time // last activity

	Stats MiddleboxStats
}

type flowKey struct {
	a, b addrPort
}

func canonicalKey(ft seg.FourTuple) flowKey {
	a := addrPort{ft.SrcIP, ft.SrcPort}
	b := addrPort{ft.DstIP, ft.DstPort}
	if b.less(a) {
		a, b = b, a
	}
	return flowKey{a, b}
}

// NewMiddlebox creates a middlebox with the given idle timeout and expiry
// policy.
func NewMiddlebox(c *sim.Clock, name string, idle time.Duration, policy ExpiryPolicy) *Middlebox {
	return &Middlebox{
		clock:       c,
		name:        name,
		routes:      make(map[netip.Addr]*Link),
		idleTimeout: idle,
		policy:      policy,
		flows:       make(map[flowKey]sim.Time),
	}
}

// Name implements Node.
func (m *Middlebox) Name() string { return m.name }

// Clock implements Node.
func (m *Middlebox) Clock() *sim.Clock { return m.clock }

// AddRoute wires the egress link for a destination address.
func (m *Middlebox) AddRoute(dst netip.Addr, l *Link) { m.routes[dst] = l }

// FlowCount reports the number of live (unexpired as of now) flow entries.
func (m *Middlebox) FlowCount() int {
	n := 0
	for _, last := range m.flows {
		if m.clock.Now()-last <= sim.Time(m.idleTimeout) {
			n++
		}
	}
	return n
}

// Input implements Node.
func (m *Middlebox) Input(pkt *Packet) {
	key := canonicalKey(pkt.Seg.Tuple)
	now := m.clock.Now()
	last, known := m.flows[key]
	switch {
	case pkt.Seg.Is(seg.SYN):
		// New flow attempts (re)install state.
		if !known {
			m.Stats.FlowsSeen++
		}
		m.flows[key] = now
	case known && now-last <= sim.Time(m.idleTimeout):
		m.flows[key] = now // refresh
	default:
		// Expired or never-seen mid-flow packet.
		m.Stats.Expired++
		delete(m.flows, key)
		if m.policy == ExpiryRST {
			m.injectRST(pkt)
		}
		pkt.Release()
		return
	}
	m.forward(pkt)
}

func (m *Middlebox) forward(pkt *Packet) {
	l := m.routes[pkt.Dst]
	if l == nil {
		pkt.Release()
		return
	}
	m.Stats.Forwarded++
	l.Send(pkt)
}

// injectRST answers the sender of pkt with a RST, as some firewalls do for
// flows they no longer track. pkt is only read; the caller still owns it.
func (m *Middlebox) injectRST(pkt *Packet) {
	rst := seg.Shared.Get()
	rst.Tuple = pkt.Seg.Tuple.Reverse()
	rst.Seq = pkt.Seg.Ack
	rst.Ack = pkt.Seg.SeqEnd()
	rst.Flags = seg.RST | seg.ACK
	back := NewPacket(rst)
	if l := m.routes[back.Dst]; l != nil {
		m.Stats.RSTInjected++
		l.Send(back)
	} else {
		back.Release()
	}
}
