package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/nlmsg"
	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
)

// The layer drivers call one layer's public functions a fixed number of
// times and report host nanoseconds and heap allocations per operation,
// so a layer's share of a traced run is roughly its cost per operation
// times the run's operation count. Each driver warms up before measuring.

// opCost is one driver's result.
type opCost struct {
	ns, allocs float64
}

// measureOps times ops calls of op after warm calls of it; op receives
// the call's index, counting on from the warm-up calls.
func measureOps(warm, ops int, op func(i int)) opCost {
	for i := 0; i < warm; i++ {
		op(i)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := warm; i < warm+ops; i++ {
		op(i)
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return opCost{
		ns:     float64(el.Nanoseconds()) / float64(ops),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
	}
}

// splitmix is a tiny deterministic generator for driver inputs.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// driveQueue measures one Schedule plus one pop on a one-shard sim.World
// holding depth pending events: every fired event schedules its successor
// a uniform [1, 2·depth] ns later, so the queue stays at depth and about
// one event fires per simulated nanosecond.
func driveQueue(depth, ops int, seed uint64) opCost {
	w := sim.NewWorld(1, 1)
	clk := w.HostClock(0, "queue")
	if err := w.Finalize(); err != nil {
		panic(err)
	}
	rng := splitmix(seed)
	span := uint64(2 * depth)
	var fire func(any)
	fire = func(any) {
		clk.ScheduleArg(clk.Now()+sim.Time(1+rng.next()%span), "q", fire, nil)
	}
	for i := 0; i < depth; i++ {
		clk.ScheduleArg(sim.Time(1+rng.next()%span), "q", fire, nil)
	}
	// One op is one RunUntil step of a batch; batches amortise the
	// window bookkeeping of RunUntil over many events.
	const batch = 1000
	before := w.Processed()
	c := measureOps(ops/batch/10, ops/batch, func(int) { w.RunUntil(w.Now() + batch) })
	// Scale by the events actually executed (≈ one per nanosecond).
	per := float64(w.Processed()-before) / float64(ops/batch+ops/batch/10)
	return opCost{ns: c.ns / per, allocs: c.allocs / per}
}

// driveLink measures one packet through netem: Host.Send onto a 1 Gb/s
// link, serialisation and propagation events, delivery to the receiving
// host's handler, which releases it.
func driveLink(ops int) opCost {
	w := sim.NewWorld(1, 1)
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	rx := netem.NewHost(w.HostClock(0, "rx"), "rx")
	rx.SetHandler(func(p *netem.Packet) { p.Release() })
	tx := netem.NewHost(w.HostClock(0, "tx"), "tx")
	wire := netem.NewLink(tx.Clock(), "wire", rx, netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond})
	tx.AddIface("eth0", src, wire)
	if err := w.Finalize(); err != nil {
		panic(err)
	}
	return measureOps(ops/10, ops, func(i int) {
		sg := seg.Shared.Get()
		sg.Tuple = seg.FourTuple{SrcIP: src, DstIP: dst, SrcPort: 1000, DstPort: 80}
		sg.Flags = seg.ACK | seg.PSH
		sg.PayloadLen = 1380
		d := sg.ScratchDSS()
		d.HasMap, d.DataSeq, d.MapLen = true, uint64(i)*1380, 1380
		tx.Send(netem.NewPacket(sg))
		w.RunFor(2 * time.Millisecond)
	})
}

// nopOwner is the minimal tcp.Owner of a driver subflow.
type nopOwner struct{ acked int }

func (*nopOwner) HandshakeOptions(*tcp.Subflow, tcp.Stage) []seg.Option { return nil }
func (*nopOwner) HandshakeAccept(*tcp.Subflow, *seg.Segment, tcp.Stage) tcp.Verdict {
	return tcp.Accept
}
func (*nopOwner) OnEstablished(*tcp.Subflow)                        {}
func (*nopOwner) OnSegment(*tcp.Subflow, *seg.Segment, bool)        {}
func (*nopOwner) CurrentDataAck() (uint64, bool)                    { return 0, false }
func (*nopOwner) OnTimeout(*tcp.Subflow, time.Duration, int)        {}
func (*nopOwner) OnClosed(*tcp.Subflow, tcp.Errno)                  {}
func (o *nopOwner) OnAckAdvance(_ *tcp.Subflow, acked []*tcp.Chunk) { o.acked += len(acked) }

// driveSubflow measures one subflow send → ack round trip: two subflows
// joined by a 50 µs wire of pooled segments; each op pushes one MSS on
// the active side and runs the loop until the ack came back.
func driveSubflow(ops int) opCost {
	w := sim.NewWorld(1, 1)
	clk := w.HostClock(0, "pair")
	if err := w.Finalize(); err != nil {
		panic(err)
	}
	tup := seg.FourTuple{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.1.1"),
		SrcPort: 40000, DstPort: 80,
	}
	var a, b *tcp.Subflow
	wire := func(to **tcp.Subflow) tcp.Output {
		deliver := func(arg any) {
			s := arg.(*seg.Segment)
			(*to).HandleSegment(s)
			seg.Shared.Put(s)
		}
		return func(s *seg.Segment) { clk.AfterArg(50*time.Microsecond, "wire", deliver, s) }
	}
	oa := &nopOwner{}
	cfg := tcp.Config{NoPacing: true}
	a = tcp.NewSubflow(clk, cfg, tup, wire(&b), oa)
	b = tcp.NewSubflow(clk, cfg, tup.Reverse(), wire(&a), &nopOwner{})
	a.Connect()
	w.RunFor(time.Millisecond)
	if !a.Established() || !b.Established() {
		panic("perfbench: driver subflows did not establish")
	}
	var seq uint64
	c := measureOps(ops/10, ops, func(int) {
		before := oa.acked
		a.Push(seq, a.MSS(), false)
		seq += uint64(a.MSS())
		for oa.acked == before {
			w.RunFor(50 * time.Microsecond)
		}
	})
	return c
}

// drivePickReassembly measures one lowest-rtt Pick over four stub
// subflows plus one DSS mapping handed to an established connection's
// receiver (tcp.Owner.OnSegment). Mappings arrive in reversed groups of
// eight, so seven of every eight are held out of order first.
func drivePickReassembly(ops int) opCost {
	sched, err := mptcp.LookupScheduler("lowest-rtt")
	if err != nil {
		panic(err)
	}
	pick := sched(nil)
	stubs := make([]*tcp.Subflow, 4)
	for i := range stubs {
		stubs[i] = tcp.NewStubSubflow(tcp.StubState{
			Tuple:       seg.FourTuple{SrcPort: uint16(1000 + i), DstPort: 80},
			Established: true,
			SRTT:        time.Duration(10+7*i) * time.Millisecond,
			Window:      64 << 10,
		})
	}

	w := sim.NewWorld(1, 1)
	tp := topo.NewTwoPath(w,
		netem.LinkConfig{RateBps: 100e6, Delay: 5 * time.Millisecond},
		netem.LinkConfig{RateBps: 100e6, Delay: 15 * time.Millisecond})
	if err := w.Finalize(); err != nil {
		panic(err)
	}
	cep := mptcp.NewEndpoint(tp.Client, mptcp.Config{}, mptcp.NopPM{})
	sep := mptcp.NewEndpoint(tp.Server, mptcp.Config{}, mptcp.NopPM{})
	var server *mptcp.Connection
	sep.Listen(80, func(c *mptcp.Connection) { server = c })
	if _, err := cep.Connect(tp.ClientAddrs[0], tp.ServerAddr, 80, mptcp.ConnCallbacks{}); err != nil {
		panic(err)
	}
	w.RunFor(time.Second)
	if server == nil || !server.Established() {
		panic("perfbench: driver connection did not establish")
	}
	sf := server.Subflows()[0]
	base, _ := server.CurrentDataAck() // absolute sequence of the next byte
	const mss = 1380
	s := &seg.Segment{PayloadLen: mss}
	dss := &seg.DSS{HasMap: true, MapLen: mss}
	s.Options = []seg.Option{dss}
	c := measureOps(ops/10, ops, func(i int) {
		if pick.Pick(stubs, mss) == nil {
			panic("perfbench: lowest-rtt picked nothing")
		}
		group, k := i/8, 7-i%8
		dss.DataSeq = base + uint64(group*8+k)*mss
		server.OnSegment(sf, s, true)
	})
	if got, want := server.RcvBytes(), uint64((ops+ops/10)/8*8)*mss; got != want {
		panic(fmt.Sprintf("perfbench: reassembly delivered %d bytes, want %d", got, want))
	}
	return c
}

// driveEventMarshal measures the pooled Netlink encode of one event.
func driveEventMarshal(ops int) opCost {
	ev := &nlmsg.Event{
		Kind: nlmsg.EvTimeout, Token: 0xdead, RTO: 3200 * time.Millisecond,
		Backoffs: 4, HasTuple: true,
		Tuple: seg.FourTuple{SrcPort: 1, DstPort: 2},
	}
	buf := nlmsg.Wire.Get()
	c := measureOps(ops/10, ops, func(i int) {
		buf = ev.AppendMarshal(buf[:0], uint32(i), 1)
	})
	nlmsg.Wire.Put(buf)
	return c
}

// driveEventParse measures the in-place decode of one event.
func driveEventParse(ops int) opCost {
	ev := &nlmsg.Event{Kind: nlmsg.EvSubClosed, Token: 0xdead, Errno: 110, HasTuple: true,
		Tuple: seg.FourTuple{SrcPort: 1, DstPort: 2}}
	wire := ev.Marshal(1, 1)
	var m nlmsg.Message
	var out nlmsg.Event
	return measureOps(ops/10, ops, func(int) {
		if _, err := nlmsg.UnmarshalInto(wire, &m); err != nil {
			panic(err)
		}
		if err := nlmsg.ParseEventInto(&m, &out); err != nil {
			panic(err)
		}
	})
}

// recLib is a core.Lib that records commands and schedules nothing; it
// lets the fullmesh policy run outside a simulation.
type recLib struct {
	cbs      core.Callbacks
	commands int
}

func (l *recLib) Register(cbs core.Callbacks, _ func(uint32)) { l.cbs = cbs }
func (l *recLib) CreateSubflow(uint32, seg.FourTuple, bool, func(uint32)) {
	l.commands++
}
func (l *recLib) RemoveSubflow(uint32, seg.FourTuple, func(uint32))     { l.commands++ }
func (l *recLib) SetBackup(uint32, seg.FourTuple, bool, func(uint32))   { l.commands++ }
func (l *recLib) AnnounceAddr(uint32, netip.Addr, uint16, func(uint32)) {}
func (l *recLib) GetInfo(uint32, func(*nlmsg.ConnInfo))                 {}
func (l *recLib) After(time.Duration, func()) func()                    { return func() {} }
func (l *recLib) Clock() core.Clock                                     { return nil }

// driveDecision measures one fullmesh decision: a connection with two
// local interfaces and one remote, whose second interface goes down (the
// policy drops its subflow) and comes back up (it creates a new one).
// One op is one down event, preceded by the sub-established event of the
// subflow it drops, or one up event.
func driveDecision(ops int) opCost {
	a0, a1 := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.1.1")
	remote := netip.MustParseAddr("10.255.0.1")
	fm := controller.NewFullMesh([]netip.Addr{a0, a1})
	lib := &recLib{}
	fm.Attach(lib)
	const token = 7
	initial := seg.FourTuple{SrcIP: a0, DstIP: remote, SrcPort: 40000, DstPort: 80}
	lib.cbs.Created(&nlmsg.Event{Kind: nlmsg.EvCreated, Token: token, HasTuple: true, Tuple: initial})
	lib.cbs.Established(&nlmsg.Event{Kind: nlmsg.EvEstablished, Token: token, HasTuple: true, Tuple: initial})
	down := &nlmsg.Event{Kind: nlmsg.EvLocalAddrDown, Addr: a1}
	up := &nlmsg.Event{Kind: nlmsg.EvLocalAddrUp, Addr: a1}
	second := &nlmsg.Event{Kind: nlmsg.EvSubEstablished, Token: token, HasTuple: true,
		Tuple: seg.FourTuple{SrcIP: a1, DstIP: remote, DstPort: 80}}
	before := lib.commands
	c := measureOps(ops/10, ops, func(i int) {
		if i%2 == 0 {
			second.Tuple.SrcPort = uint16(41000 + i%20000)
			lib.cbs.SubEstablished(second)
			lib.cbs.LocalAddrDown(down)
		} else {
			lib.cbs.LocalAddrUp(up)
		}
	})
	if lib.commands == before {
		panic("perfbench: fullmesh issued no commands")
	}
	return c
}
