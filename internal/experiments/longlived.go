package experiments

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// longLivedConfig parameterises the §4.1 long-lived-connection experiment.
type longLivedConfig struct {
	Sched       string        // registered scheduler name; "" = lowest-rtt
	Policy      string        // registered controller; "" = the plain stack (nil policy)
	NATTimeout  time.Duration // middlebox idle timeout (deployed boxes: a few hundred seconds)
	Expiry      netem.ExpiryPolicy
	MsgInterval time.Duration // application message cadence (sparser than the NAT timeout)
	Messages    int
	MsgSize     int
	FlapAt      time.Duration // one interface outage, 0 disables
	FlapFor     time.Duration
}

func init() {
	scenario.Register("longlived",
		"long-lived connections (§4.1): chat through a NAT with idle timeouts, smart full-mesh vs plain stack",
		func(p *scenario.Params) (*scenario.Spec, error) {
			// A 180 s NAT timeout and a chat message every 10 minutes —
			// the keepalive battle of §4.1. Smoke shrinks the defaults
			// before the reads, so an explicit -set still wins.
			messages, flapAt := 12, 25*time.Minute
			if p.Bool("smoke", false) {
				messages, flapAt = 4, 15*time.Minute
			}
			policy := p.Str("policy", "fullmesh")
			if p.Bool("plain", false) {
				policy = "" // the nil policy: same stack, no controller
			}
			return longLivedSpec(longLivedConfig{
				Sched:       p.Str("sched", ""),
				Policy:      policy,
				NATTimeout:  p.Duration("nat_timeout", 180*time.Second),
				Expiry:      netem.ExpiryRST,
				MsgInterval: p.Duration("interval", 10*time.Minute),
				Messages:    p.Int("messages", messages),
				MsgSize:     p.Int("msg_size", 2000),
				FlapAt:      p.Duration("flap_at", flapAt),
				FlapFor:     p.Duration("flap_for", 2*time.Minute),
			}), nil
		})
	scenario.RegisterParams("longlived",
		scenario.ParamDoc{Key: "plain", Type: "bool", Default: "false", Desc: "run the nil policy (plain-stack baseline)"},
		scenario.ParamDoc{Key: "nat_timeout", Type: "duration", Default: "3m0s", Desc: "NAT idle-entry expiry"},
		scenario.ParamDoc{Key: "interval", Type: "duration", Default: "10m0s", Desc: "message interval"},
		scenario.ParamDoc{Key: "messages", Type: "int", Default: "12", Desc: "messages per direction"},
		scenario.ParamDoc{Key: "msg_size", Type: "int", Default: "2000", Desc: "bytes per message"},
		scenario.ParamDoc{Key: "flap_at", Type: "duration", Default: "25m0s", Desc: "when the primary interface flaps"},
		scenario.ParamDoc{Key: "flap_for", Type: "duration", Default: "2m0s", Desc: "flap outage length"},
	)
}

// longLivedSpec declares the §4.1 scenario: a chat-style connection
// through a NAT that expires idle state, with an optional interface
// outage. With the smart full-mesh controller, failed subflows are
// re-established with error-specific backoff and every message is
// eventually delivered; the plain stack loses its only subflow at the
// first expiry and stalls.
func longLivedSpec(cfg longLivedConfig) *scenario.Spec {
	mode := fmt.Sprintf("userspace %q controller", cfg.Policy)
	if cfg.Policy == "" {
		mode = "plain stack (nil policy)"
	}

	p := netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond}
	wl := &scenario.OnOff{Interval: cfg.MsgInterval, Count: cfg.Messages, Size: cfg.MsgSize}

	var events []scenario.Event
	if cfg.FlapAt > 0 {
		events = scenario.FlapIface(cfg.FlapAt, cfg.FlapFor, 0)
	}
	horizon := cfg.MsgInterval*time.Duration(cfg.Messages+1) + 5*time.Minute

	run := &scenario.RunSpec{
		Label:    "longlived",
		Topology: scenario.NATPath{P0: p, P1: p, Idle: cfg.NATTimeout, Expiry: cfg.Expiry},
		Workload: wl,
		Sched:    cfg.Sched,
		Policy:   cfg.Policy,
		Settle:   time.Millisecond,
		Events:   events,
		Stop:     scenario.Stop{Horizon: horizon},
	}

	return &scenario.Spec{
		Name:  "longlived",
		Title: "§4.1 — smarter long-lived connections",
		Desc: fmt.Sprintf("NAT idle timeout %v (%s on expiry); message every %v; %s",
			cfg.NATTimeout, expiryName(cfg.Expiry), cfg.MsgInterval, mode),
		Runs: []*scenario.RunSpec{run},
		Render: func(res *stats.Result, runs []*scenario.Run) {
			rt := runs[0]
			delivered := len(wl.Arrivals)
			lat := res.Sample("message delivery latency (s)")
			for i, at := range wl.Arrivals {
				if i < len(wl.SendTimes) {
					lat.Add(time.Duration(at - wl.SendTimes[i]).Seconds())
				}
			}
			res.Scalars["messages_sent"] = float64(len(wl.SendTimes))
			res.Scalars["messages_delivered"] = float64(delivered)
			ctl, _ := rt.Stack.Controller(rt.Conn).(*controller.FullMesh)
			if ctl != nil {
				res.Scalars["reestablishments"] = float64(ctl.Stats.Reestablishments)
				res.Scalars["dismissed"] = float64(ctl.Stats.SubflowsDismissed)
			}
			res.Scalars["nat_expiries"] = float64(rt.Net.NAT.Stats.Expired)
			res.Scalars["live_subflows_at_end"] = float64(len(rt.Conn.Subflows()))

			res.Section("results")
			res.Printf("messages delivered: %d / %d\n", delivered, len(wl.SendTimes))
			if lat.N() > 0 {
				res.Printf("delivery latency: %s\n", lat.Summary("s"))
			}
			res.Printf("NAT state expiries hit: %d; RSTs injected: %d\n",
				rt.Net.NAT.Stats.Expired, rt.Net.NAT.Stats.RSTInjected)
			if ctl != nil {
				res.Printf("controller re-establishments: %d (by errno: %v); dismissed on if-down: %d\n",
					ctl.Stats.Reestablishments, ctl.Stats.RetriesByErrno, ctl.Stats.SubflowsDismissed)
			}
			res.Printf("live subflows at end: %d\n", len(rt.Conn.Subflows()))
		},
	}
}

func expiryName(p netem.ExpiryPolicy) string {
	if p == netem.ExpiryRST {
		return "RST"
	}
	return "drop"
}
