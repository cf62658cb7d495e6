package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smapp"
	"repro/internal/stats"
)

// scaleConfig parameterises the stress workload: N concurrent Multipath
// TCP connections × M subflows each, streaming simultaneously through one
// shared bottleneck, swept over packet schedulers and subflow controllers.
type scaleConfig struct {
	Conns        int           // concurrent connections, one client host each
	Subflows     int           // interfaces per client (→ subflows via full-mesh)
	Servers      int           // server hosts behind the aggregation, dialed round-robin (0 = 1)
	BytesPerConn int           // payload each client streams at t≈0
	Schedulers   []string      // swept packet schedulers; empty = lowest-rtt, round-robin
	Controllers  []string      // swept policies; empty = [kernel]; "kernel" = in-kernel full-mesh
	AccessBps    float64       // per-interface access rate
	Bottleneck   float64       // shared bottleneck rate
	Delay        time.Duration // one-way access-path delay
	Horizon      time.Duration // simulation cutoff
	Wall         bool          // report the wall-clock throughput section
}

func init() {
	scenario.Register("scale",
		"scale stress: N conns × M subflows through a shared bottleneck, swept over schedulers × controllers",
		func(p *scenario.Params) (*scenario.Spec, error) {
			// A bench-sized stress scenario: 16 clients × 2 subflows
			// pushing 1 MB each through a 200 Mbps bottleneck. Smoke
			// shrinks the defaults before the reads, so an explicit -set
			// (or -sched) still wins.
			conns, kb := 16, 1024
			var scheds []string
			if p.Bool("smoke", false) {
				conns, kb, scheds = 4, 128, []string{"lowest-rtt"}
			}
			if s := p.Str("sched", ""); s != "" {
				scheds = []string{s} // sweep a single scheduler
			}
			var ctls []string
			if c := p.Str("policy", ""); c != "" {
				ctls = []string{c}
			}
			return scaleSpec(scaleConfig{
				Conns:        p.Int("conns", conns),
				Subflows:     p.Int("subflows", 2),
				Servers:      p.Int("servers", 0),
				BytesPerConn: p.Int("kb", kb) << 10,
				Schedulers:   p.Strings("schedulers", scheds),
				Controllers:  p.Strings("controllers", ctls),
				AccessBps:    50e6,
				Bottleneck:   200e6,
				Delay:        10 * time.Millisecond,
				Horizon:      2 * time.Minute,
				Wall:         p.Bool("wall", true),
			})
		})
	scenario.RegisterParams("scale",
		scenario.ParamDoc{Key: "conns", Type: "int", Default: "16", Desc: "concurrent connections (one client host each)"},
		scenario.ParamDoc{Key: "subflows", Type: "int", Default: "2", Desc: "interfaces (→ subflows) per client"},
		scenario.ParamDoc{Key: "servers", Type: "int", Default: "1", Desc: "server hosts, dialed round-robin"},
		scenario.ParamDoc{Key: "kb", Type: "int", Default: "1024", Desc: "payload per connection in KB"},
		scenario.ParamDoc{Key: "schedulers", Type: "list", Desc: "swept packet schedulers (default: every registered one)"},
		scenario.ParamDoc{Key: "controllers", Type: "list", Desc: "swept subflow controllers (default: kernel + every registered one)"},
		scenario.ParamDoc{Key: "wall", Type: "bool", Default: "true", Desc: "include wall-clock throughput scalars"},
	)
}

// scaleCell is the outcome of one (scheduler, controller) sweep cell.
type scaleCell struct {
	sched, ctl string
	completed  int
	medianS    float64
	p90S       float64
	goodputMbs float64 // delivered payload bits/s over the busy interval
	pkts       uint64  // packets delivered end to end (both directions)
	drops      uint64  // queue drops at the bottleneck
	events     uint64  // simulator events processed
	wall       time.Duration
}

// scaleSpec declares the stress matrix: one fan-out run per (scheduler,
// controller) cell on a fresh star topology. Simulated results
// (completions, goodput, drops) are deterministic per seed; the
// wall-clock throughput scalars (segs_per_wall_s, events_per_wall_s)
// measure the host executing the simulation and feed the performance
// trajectory in the bench artifact. Wall=false suppresses the wall-clock
// report section (it would break report determinism checks).
func scaleSpec(cfg scaleConfig) (*scenario.Spec, error) {
	scheds := cfg.Schedulers
	if len(scheds) == 0 {
		scheds = []string{"lowest-rtt", "round-robin"}
	}
	ctls := cfg.Controllers
	if len(ctls) == 0 {
		ctls = []string{scenario.KernelPolicy}
	}
	for _, name := range scheds {
		if _, err := mptcp.LookupScheduler(name); err != nil {
			return nil, err
		}
	}
	for _, name := range ctls {
		if name == scenario.KernelPolicy {
			continue
		}
		if _, err := smapp.LookupController(name); err != nil {
			return nil, err
		}
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
	var runs []*scenario.RunSpec
	for _, sched := range scheds {
		for _, ctl := range ctls {
			runs = append(runs, &scenario.RunSpec{
				Label:     sched + "/" + ctl,
				Topology:  star,
				Workload:  &scenario.FanOut{Bytes: cfg.BytesPerConn},
				Sched:     sched,
				Policy:    ctl,
				PolicyCfg: smapp.ControllerConfig{Subflows: cfg.Subflows},
				Stop:      scenario.Stop{Horizon: cfg.Horizon},
			})
		}
	}

	return &scenario.Spec{
		Name:  "scale",
		Title: "Scale stress — pooled data path under concurrent load",
		Desc: fmt.Sprintf("%d conns x %d subflows, %d KB each; access %.0f Mbps, bottleneck %.0f Mbps, %v delay",
			cfg.Conns, cfg.Subflows, cfg.BytesPerConn>>10, cfg.AccessBps/1e6, cfg.Bottleneck/1e6, cfg.Delay),
		Runs: runs,
		Render: func(res *stats.Result, runs []*scenario.Run) {
			var cells []scaleCell
			var totalPkts, totalEvents uint64
			var totalWall time.Duration
			for _, rt := range runs {
				cell := scaleCellOf(cfg, rt)
				cells = append(cells, cell)
				totalPkts += cell.pkts
				totalEvents += cell.events
				totalWall += cell.wall
				key := cell.sched + "/" + cell.ctl
				res.Scalars[key+"_completed"] = float64(cell.completed)
				res.Scalars[key+"_median_s"] = cell.medianS
				res.Scalars[key+"_p90_s"] = cell.p90S
				res.Scalars[key+"_goodput_mbps"] = cell.goodputMbs
				res.Scalars[key+"_bottleneck_drops"] = float64(cell.drops)
				s := res.Sample(key + " completion (s)")
				s.Add(cell.medianS)
			}

			res.Section("sweep matrix")
			res.Printf("%-14s %-10s %5s %9s %9s %9s %9s %7s\n",
				"scheduler", "controller", "done", "median", "p90", "goodput", "pkts", "drops")
			for _, c := range cells {
				res.Printf("%-14s %-10s %3d/%-2d %8.2fs %8.2fs %6.1fMb/s %9d %7d\n",
					c.sched, c.ctl, c.completed, cfg.Conns, c.medianS, c.p90S, c.goodputMbs, c.pkts, c.drops)
			}

			wallS := totalWall.Seconds()
			if wallS > 0 {
				res.Scalars["segs_per_wall_s"] = float64(totalPkts) / wallS
				res.Scalars["events_per_wall_s"] = float64(totalEvents) / wallS
				// Host throughput measures the machine, not the model:
				// tag it so `mpexp diff` skips it instead of relying on
				// the name (benchgate owns its regression thresholds).
				res.MarkWallClock("segs_per_wall_s", "events_per_wall_s")
			}
			if cfg.Wall && wallS > 0 {
				res.Section("host throughput (wall clock)")
				res.Printf("delivered %d packets / processed %d events in %v: %.0f segs/s, %.0f events/s\n",
					totalPkts, totalEvents, totalWall.Round(time.Millisecond),
					float64(totalPkts)/wallS, float64(totalEvents)/wallS)
			}
		},
	}, nil
}

// scaleCellOf reduces one fan-out run to its sweep-matrix row.
func scaleCellOf(cfg scaleConfig, rt *scenario.Run) scaleCell {
	wl := rt.Spec.Workload.(*scenario.FanOut)
	cell := scaleCell{sched: rt.Spec.Sched, ctl: rt.Spec.Policy}
	delays := &sample{}
	var lastDone sim.Time
	var delivered uint64
	for i, at := range wl.CompletedAt {
		if at < 0 {
			continue
		}
		cell.completed++
		delays.Add(time.Duration(at - wl.DialAt[i]).Seconds())
		if at > lastDone {
			lastDone = at
		}
		delivered += uint64(cfg.BytesPerConn)
	}
	if delays.N() > 0 {
		cell.medianS = delays.Median()
		cell.p90S = delays.Quantile(0.9)
	}
	if lastDone > 0 {
		cell.goodputMbs = float64(delivered*8) / lastDone.Seconds() / 1e6
	}
	for _, srv := range rt.Net.Servers {
		cell.pkts += srv.Stats.Delivered
	}
	for _, cl := range rt.Net.Clients {
		cell.pkts += cl.Host.Stats.Delivered
	}
	for name, d := range rt.Net.Links {
		if strings.HasPrefix(name, "bottleneck") {
			cell.drops += d.AB.Stats.DropQueue + d.BA.Stats.DropQueue
		}
	}
	cell.events = rt.Sim.Processed()
	cell.wall = rt.Wall
	return cell
}
