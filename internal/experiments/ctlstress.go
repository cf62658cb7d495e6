package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/nlmsg"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smapp"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// ctlStressConfig parameterises the control-plane stress scenario: N
// long-lived connections × M subflows with a fullmesh controller attached
// to each, while per-client interface flaps churn the subflow set. The
// measurement is policy-decision latency — the delay from a kernel event
// being emitted to the controller's resulting command being applied back
// in the kernel — under the immediate and the coalesced delivery modes.
type ctlStressConfig struct {
	Conns        int           // concurrent connections, one client host each
	Subflows     int           // interfaces per client (≥2; iface 1 is flapped)
	Servers      int           // server hosts, dialed round-robin (0 = 1)
	BytesPerConn int           // initial payload (the connection stays open after)
	FlapEvery    time.Duration // per-client churn period
	FlapDown     time.Duration // outage length within each period
	Window       time.Duration // coalescing flush window of the coalesced cell
	Queue        int           // pending-event queue bound (≤0 = core default)
	AccessBps    float64       // per-interface access rate
	Bottleneck   float64       // shared bottleneck rate
	Delay        time.Duration // one-way access-path delay
	Horizon      time.Duration // simulation cutoff
}

func init() {
	scenario.Register("ctlstress",
		"control-plane stress: flap-driven subflow churn under a fullmesh controller, measuring event→command decision latency",
		func(p *scenario.Params) (*scenario.Spec, error) {
			// The bench-sized control-plane stress run: 8 clients
			// flapping their second interface every 150 ms for 2 s.
			// Smoke shrinks the defaults first, so an explicit -set still
			// wins (the shard smoke cell runs `-smoke -set conns=8`).
			conns, kb, horizon := 8, 64, 2*time.Second
			if p.Bool("smoke", false) {
				conns, kb, horizon = 4, 32, time.Second
			}
			return ctlStressSpec(ctlStressConfig{
				Conns:        p.Int("conns", conns),
				Subflows:     p.Int("subflows", 2),
				Servers:      p.Int("servers", 0),
				BytesPerConn: p.Int("kb", kb) << 10,
				FlapEvery:    p.Duration("flap_every", 150*time.Millisecond),
				FlapDown:     p.Duration("flap_down", 60*time.Millisecond),
				Window:       p.Duration("window", 200*time.Microsecond),
				Queue:        p.Int("queue", 0),
				AccessBps:    50e6,
				Bottleneck:   200e6,
				Delay:        10 * time.Millisecond,
				Horizon:      horizon,
			})
		})
	scenario.RegisterParams("ctlstress",
		scenario.ParamDoc{Key: "conns", Type: "int", Default: "8", Desc: "concurrent connections, one client host each"},
		scenario.ParamDoc{Key: "subflows", Type: "int", Default: "2", Desc: "interfaces per client, >= 2; iface 1 is flapped"},
		scenario.ParamDoc{Key: "kb", Type: "int", Default: "64", Desc: "initial payload per connection in KB"},
		scenario.ParamDoc{Key: "flap_every", Type: "duration", Default: "150ms", Desc: "per-client churn period"},
		scenario.ParamDoc{Key: "flap_down", Type: "duration", Default: "60ms", Desc: "outage length within each period"},
		scenario.ParamDoc{Key: "window", Type: "duration", Default: "200µs", Desc: "coalescing flush window of the coalesced cell"},
		scenario.ParamDoc{Key: "queue", Type: "int", Default: "128", Desc: "pending-event queue bound, drop-oldest overflow"},
		scenario.ParamDoc{Key: "servers", Type: "int", Default: "1", Desc: "server hosts, dialed round-robin"},
	)
}

// ctlStressSpec declares two runs of the same churn workload on fresh star
// topologies: "immediate" delivers one frame per event (the legacy path);
// "coalesced" batches events per flush window into pooled multi-message
// frames. Every scalar is simulated — no wall-clock output — so the run is
// byte-identical at any shard count.
func ctlStressSpec(cfg ctlStressConfig) (*scenario.Spec, error) {
	if cfg.Subflows < 2 {
		return nil, fmt.Errorf("ctlstress: need subflows >= 2 (iface 1 is flapped), got %d", cfg.Subflows)
	}
	star := scenario.Star{
		Clients: cfg.Conns,
		Ifaces:  cfg.Subflows,
		Servers: cfg.Servers,
		Access:  netem.LinkConfig{RateBps: cfg.AccessBps, Delay: cfg.Delay},
		Bottleneck: netem.LinkConfig{
			RateBps: cfg.Bottleneck, Delay: 500 * time.Microsecond,
		},
	}
	// Per-client flap schedule: client i's second interface goes down at
	// 50ms + i*7ms and then every FlapEvery, each outage FlapDown long.
	// The 7 ms stagger keeps the flap bursts from phase-locking across
	// clients while staying deterministic.
	var events []scenario.Event
	for i := 0; i < cfg.Conns; i++ {
		start := 50*time.Millisecond + time.Duration(i)*7*time.Millisecond
		for at := start; at+cfg.FlapDown < cfg.Horizon; at += cfg.FlapEvery {
			events = append(events, scenario.FlapClientIface(at, cfg.FlapDown, i, 1)...)
		}
	}

	windows := []struct {
		label  string
		window time.Duration
	}{{"immediate", 0}}
	if cfg.Window > 0 {
		windows = append(windows, struct {
			label  string
			window time.Duration
		}{"coalesced", cfg.Window})
	}
	var runs []*scenario.RunSpec
	for _, w := range windows {
		runs = append(runs, &scenario.RunSpec{
			Label:     w.label,
			Topology:  star,
			Workload:  &ctlStressLoad{Bytes: cfg.BytesPerConn, Window: w.window, Queue: cfg.Queue},
			Policy:    "fullmesh",
			PolicyCfg: smapp.ControllerConfig{Subflows: cfg.Subflows},
			Events:    events,
			Stop:      scenario.Stop{Horizon: cfg.Horizon},
		})
	}

	return &scenario.Spec{
		Name:  "ctlstress",
		Title: "Control-plane stress — decision latency under subflow churn",
		Desc: fmt.Sprintf("%d conns x %d subflows, flap every %v (down %v); coalescing window %v",
			cfg.Conns, cfg.Subflows, cfg.FlapEvery, cfg.FlapDown, cfg.Window),
		Runs: runs,
		Render: func(res *stats.Result, runs []*scenario.Run) {
			res.Section("decision latency (event emitted -> command applied)")
			res.Printf("%-10s %6s %9s %9s %8s %9s %9s %7s %7s %7s %5s\n",
				"mode", "n", "p50", "p99", "frames", "events", "coalesce", "drops", "flush", "cmds", "qhw")
			for _, rt := range runs {
				wl := rt.Spec.Workload.(*ctlStressLoad)
				lat := &sample{}
				var frames, commands uint64
				for _, tp := range wl.taps {
					lat.Add(tp.samples...)
					frames += tp.frames
					commands += tp.commands
				}
				var ctl smapp.CtlStats
				for _, st := range wl.stacks {
					ctl.EventsSent += st.PM.EventsSent
					ctl.EventsCoalesced += st.PM.EventsCoalesced
					ctl.EventsDropped += st.PM.EventsDropped
					ctl.Flushes += st.PM.Flushes
					// Queue high-water is a depth, not a count: the worst
					// backlog any one client's queue reached.
					if st.PM.QueueHighWater > ctl.QueueHW {
						ctl.QueueHW = st.PM.QueueHighWater
					}
				}
				var p50, p99 float64
				if lat.N() > 0 {
					p50 = lat.Quantile(0.5)
					p99 = lat.Quantile(0.99)
				}
				key := rt.Spec.Label
				res.Scalars[key+"_decision_p50_us"] = p50
				res.Scalars[key+"_decision_p99_us"] = p99
				res.Scalars[key+"_decision_n"] = float64(lat.N())
				res.Scalars[key+"_event_frames"] = float64(frames)
				res.Scalars[key+"_events_sent"] = float64(ctl.EventsSent)
				res.Scalars[key+"_events_coalesced"] = float64(ctl.EventsCoalesced)
				res.Scalars[key+"_events_dropped"] = float64(ctl.EventsDropped)
				res.Scalars[key+"_flushes"] = float64(ctl.Flushes)
				res.Scalars[key+"_ctl_queue_hw"] = float64(ctl.QueueHW)
				res.Printf("%-10s %6d %7.1fus %7.1fus %8d %9d %9d %7d %7d %7d %5d\n",
					key, lat.N(), p50, p99, frames, ctl.EventsSent,
					ctl.EventsCoalesced, ctl.EventsDropped, ctl.Flushes, commands, ctl.QueueHW)
				// The headline scalars track the coalesced cell when it
				// exists (the last run), the immediate cell otherwise.
				res.Scalars["decision_p50_us"] = p50
				res.Scalars["decision_p99_us"] = p99
				res.Scalars["decision_n"] = float64(lat.N())
				res.Scalars["events_coalesced"] = float64(ctl.EventsCoalesced)
				res.Scalars["events_dropped"] = float64(ctl.EventsDropped)
				res.Scalars["ctl_queue_hw"] = float64(ctl.QueueHW)
			}
		},
	}, nil
}

// ctlStressLoad is the churn workload: every client dials once through its
// own smapp stack with the run's policy bound and streams Bytes without
// closing, so the connection (and its controller) outlives the transfer
// and keeps reacting to interface flaps for the whole horizon. Each
// client's Netlink transport is tap-wrapped to timestamp stimulus events
// and the controller commands they provoke.
type ctlStressLoad struct {
	Bytes  int
	Window time.Duration // smapp.Config.CtlFlush (0 = immediate delivery)
	Queue  int           // smapp.Config.CtlQueue

	stacks []*smapp.Stack
	taps   []*ctlTap
}

// OwnsStacks implements scenario.StackOwner.
func (w *ctlStressLoad) OwnsStacks() {}

// Describe implements scenario.Workload.
func (w *ctlStressLoad) Describe() string {
	return fmt.Sprintf("subflow churn, %d KB per client, flush window %v", w.Bytes>>10, w.Window)
}

// Server implements scenario.Workload: one sink per accepted connection
// (the fan-out pattern), each on its own server's clock for shard safety.
func (w *ctlStressLoad) Server(rt *scenario.Run) {
	clientIdx := make(map[netip.Addr]int, len(rt.Net.Clients))
	for i, cl := range rt.Net.Clients {
		clientIdx[cl.Addrs[0]] = i
	}
	for si, ep := range rt.ServerEps {
		sclk := rt.Net.Servers[si].Clock()
		ep.Listen(rt.Port(), func(c *mptcp.Connection) {
			if _, ok := clientIdx[c.InitialTuple().DstIP]; !ok {
				return
			}
			c.SetCallbacks(app.NewSink(sclk, uint64(w.Bytes), nil).Callbacks())
		})
	}
}

// Client implements scenario.Workload: per client, build a tap-wrapped
// simulated Netlink transport on the client's own clock (its shard), a
// smapp stack with the run's coalescing window applied, and dial with the
// run's policy bound.
func (w *ctlStressLoad) Client(rt *scenario.Run) {
	w.stacks = make([]*smapp.Stack, len(rt.Net.Clients))
	w.taps = make([]*ctlTap, len(rt.Net.Clients))
	for i := range rt.Net.Clients {
		cl := rt.Net.Clients[i]
		cclk := cl.Host.Clock()
		tap := &ctlTap{clk: cclk}
		base := core.NewSimTransport(cclk)
		tr := &core.Transport{
			ToUser:   &tapPipe{inner: base.ToUser, onSend: tap.eventFrame},
			ToKernel: &tapPipe{inner: base.ToKernel, onRecv: tap.commandFrame},
		}
		csh := rt.TraceShard(cl.Host.Name())
		st := smapp.New(cl.Host, smapp.Config{
			MPTCP: mptcp.Config{
				Scheduler: rt.Spec.Sched,
				Trace:     csh,
				Metrics:   rt.MPTCPMetrics(cclk),
				TCP:       tcp.Config{Metrics: rt.TCPMetrics(cclk)},
			},
			Transport:  tr,
			CtlFlush:   w.Window,
			CtlQueue:   w.Queue,
			Trace:      csh,
			CtlMetrics: rt.CtlMetrics(cclk),
		})
		w.stacks[i] = st
		w.taps[i] = tap
		src := app.NewSource(cclk, w.Bytes, false)
		dst := rt.Net.ServerAddrs[i%len(rt.Net.ServerAddrs)]
		pcfg := rt.Spec.PolicyCfg
		if len(pcfg.Addrs) == 0 {
			pcfg.Addrs = cl.Addrs
		}
		at := sim.Millisecond + sim.Time(i)*10*sim.Microsecond
		cclk.Schedule(at, "ctlstress.dial", func() {
			if _, err := st.Dial(cl.Addrs[0], dst, rt.Port(), rt.Spec.Policy, pcfg, src.Callbacks()); err != nil {
				panic(err)
			}
		})
	}
}

// ctlTap observes one client's Netlink frames in both directions and turns
// them into decision-latency samples: a stimulus event (established, a
// subflow loss, an interface transition) stamps lastStim with the event's
// emission time — Event.At is set when the kernel emits, before any
// coalescing queue delay — and each subsequent policy command applied in
// the kernel samples now−lastStim. Frames are parsed in place with reused
// scratch (the tap runs synchronously inside Send/receive, inside the
// pipe's ownership window), so the hot path stays allocation-free apart
// from the sample slice.
type ctlTap struct {
	clk *sim.Clock

	msg nlmsg.Message
	ev  nlmsg.Event
	cmd nlmsg.Command

	lastStim time.Duration
	hasStim  bool
	samples  []float64 // event→command latency, µs
	frames   uint64    // kernel→user event frames (coalescing merges these)
	commands uint64    // policy commands applied (create/remove/backup)
}

// eventFrame taps kernel→user frames at Send time.
func (t *ctlTap) eventFrame(b []byte) {
	t.frames++
	for off := 0; off < len(b); {
		n, err := nlmsg.UnmarshalInto(b[off:], &t.msg)
		if err != nil {
			return
		}
		off += n
		if t.msg.Cmd == nlmsg.ReplyAck || t.msg.Cmd == nlmsg.ReplyInfo {
			continue
		}
		if nlmsg.ParseEventInto(&t.msg, &t.ev) != nil {
			continue
		}
		switch t.ev.Kind {
		case nlmsg.EvEstablished, nlmsg.EvSubClosed, nlmsg.EvLocalAddrUp, nlmsg.EvLocalAddrDown:
			t.lastStim, t.hasStim = t.ev.At, true
		}
	}
}

// commandFrame taps user→kernel frames at delivery time — the moment the
// kernel applies the command.
func (t *ctlTap) commandFrame(b []byte) {
	for off := 0; off < len(b); {
		n, err := nlmsg.UnmarshalInto(b[off:], &t.msg)
		if err != nil {
			return
		}
		off += n
		if nlmsg.ParseCommandInto(&t.msg, &t.cmd) != nil {
			continue
		}
		switch t.cmd.Kind {
		case nlmsg.CmdCreateSubflow, nlmsg.CmdRemoveSubflow, nlmsg.CmdSetBackup:
			t.commands++
			if t.hasStim {
				d := time.Duration(t.clk.Now()) - t.lastStim
				t.samples = append(t.samples, float64(d)/float64(time.Microsecond))
			}
		}
	}
}

// tapPipe wraps a core.Pipe with observation hooks on either end. The
// hooks run inside the pipe's buffer-ownership window (onSend before the
// frame is handed over, onRecv before the real receiver), so they may
// parse the frame in place but must not retain it.
type tapPipe struct {
	inner  core.Pipe
	onSend func([]byte)
	onRecv func([]byte)
}

// Send implements core.Pipe.
func (p *tapPipe) Send(b []byte) {
	if p.onSend != nil {
		p.onSend(b)
	}
	p.inner.Send(b)
}

// SetReceiver implements core.Pipe.
func (p *tapPipe) SetReceiver(fn func(b []byte)) {
	if p.onRecv == nil {
		p.inner.SetReceiver(fn)
		return
	}
	p.inner.SetReceiver(func(b []byte) {
		p.onRecv(b)
		fn(b)
	})
}
