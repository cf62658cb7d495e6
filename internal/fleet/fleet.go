package fleet

import (
	"fmt"
	"time"

	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fleetConfig parameterises one fleet run.
type fleetConfig struct {
	Devices      int
	Servers      int           // server hosts, dialed round-robin (0 = 1)
	Bytes        int           // upload size per device
	Duration     time.Duration // corpus window / stop horizon
	Mix          string        // profile mix spec (see ParseMix)
	HandoverRate float64       // mobility multiplier (1 = profile cadence)
	Bottleneck   float64       // per-server bottleneck rate, bits/s
	Sched        string        // packet scheduler ("" = lowest-rtt)
	Policy       string        // subflow controller ("" = fullmesh)
}

func init() {
	scenario.Register("fleet",
		"fleet mobility corpus: N heterogeneous devices with per-device WiFi/LTE handover schedules",
		func(p *scenario.Params) (*scenario.Spec, error) {
			// The paper-sized corpus: 64 mixed devices uploading 64 KB
			// each through a 400 Mbps aggregation while they roam. Smoke
			// shrinks the defaults before the reads, so an explicit -set
			// still wins.
			devices, kb, duration := 64, 64, 20*time.Second
			if p.Bool("smoke", false) {
				devices, kb, duration = 12, 32, 6*time.Second
			}
			return fleetSpec(fleetConfig{
				Devices:      p.Int("devices", devices),
				Servers:      p.Int("servers", 0),
				Bytes:        p.Int("kb", kb) << 10,
				Duration:     p.Duration("duration", duration),
				Mix:          p.Str("profile_mix", DefaultMix),
				HandoverRate: p.Float("handover_rate", 1),
				Bottleneck:   400e6,
				Sched:        p.Str("sched", ""),
				Policy:       p.Str("policy", "fullmesh"),
			})
		})
	scenario.RegisterParams("fleet",
		scenario.ParamDoc{Key: "devices", Type: "int", Default: "64", Desc: "fleet size"},
		scenario.ParamDoc{Key: "profile_mix", Type: "string", Default: DefaultMix, Desc: "weighted device classes, e.g. commuter:3,office:1 (profiles: " + profileList() + ")"},
		scenario.ParamDoc{Key: "handover_rate", Type: "float", Default: "1", Desc: "mobility multiplier: 2 hands over twice as often"},
		scenario.ParamDoc{Key: "duration", Type: "duration", Default: "20s", Desc: "corpus window"},
		scenario.ParamDoc{Key: "kb", Type: "int", Default: "64", Desc: "upload per device in KB"},
		scenario.ParamDoc{Key: "servers", Type: "int", Default: "1", Desc: "server hosts behind the aggregation"},
	)
}

func profileList() string {
	out := ""
	for i, n := range ProfileNames() {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// fleetSpec declares one fleet run: generate the corpus, build the star
// of per-device access links, upload under the mobility timeline, and
// reduce the per-device accounting to fleet-level percentiles. The
// percentile scalars come straight from the workload — no tracing — so
// multi-shard and multi-seed fleets stay legal; a traced single-shard
// run additionally gets the trace layer's handover-gap samples through
// the generic trace probe.
func fleetSpec(cfg fleetConfig) (*scenario.Spec, error) {
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("fleet: devices=%d: need at least one", cfg.Devices)
	}
	mix, err := ParseMix(cfg.Mix)
	if err != nil {
		return nil, err
	}
	devs, err := Generate(cfg.Devices, GenConfig{
		Mix: mix, Duration: cfg.Duration, HandoverRate: cfg.HandoverRate,
	})
	if err != nil {
		return nil, err
	}
	wl := pacedLoad(cfg.Bytes, cfg.Duration)
	run := &scenario.RunSpec{
		Label: "fleet",
		Topology: Topology{
			Devices: devs,
			Servers: cfg.Servers,
			Bottleneck: netem.LinkConfig{
				RateBps: cfg.Bottleneck, Delay: 500 * time.Microsecond,
			},
		},
		Workload: wl,
		Sched:    cfg.Sched,
		Policy:   cfg.Policy,
		Events:   CollectEvents(devs, cfg.Duration),
		Stop: scenario.Stop{
			Horizon: cfg.Duration,
			Poll:    50 * time.Millisecond,
			Until:   wl.Done,
		},
	}
	return &scenario.Spec{
		Name:  "fleet",
		Title: "Fleet mobility corpus — per-device handover schedules at scale",
		Desc: fmt.Sprintf("%d devices (%s), %d KB up each, handover rate %gx, %v window",
			cfg.Devices, cfg.Mix, cfg.Bytes>>10, cfg.HandoverRate, cfg.Duration),
		Runs: []*scenario.RunSpec{run},
		Render: func(res *stats.Result, runs []*scenario.Run) {
			renderFleet(res, devs, wl, cfg, true)
		},
	}, nil
}

// pacedLoad builds the fleet workload paced over ~60% of the corpus
// window: 16 blocks per device, so every transfer is still in flight
// when the handover timelines start firing, and the remaining 40% is
// slack for stall recovery. An upload that would finish instantly tells
// the survival table nothing.
func pacedLoad(bytes int, duration time.Duration) *Load {
	const chunks = 16
	return &Load{
		Bytes:  bytes,
		Chunks: chunks,
		Period: duration * 6 / 10 / chunks,
	}
}

// fleetOutcome reduces one fleet run's per-device accounting to the
// report's distributions.
type fleetOutcome struct {
	completed int
	handovers int
	goodput   *stats.Sample // per-device delivered Mb/s
	stall     *stats.Sample // per-device worst data gap, seconds
}

func reduce(devs []*Device, wl *Load) fleetOutcome {
	o := fleetOutcome{goodput: &stats.Sample{}, stall: &stats.Sample{}}
	// A paced upload idles for one Period between blocks by design; only
	// the excess over that floor is a stall the network caused.
	var floor sim.Time
	if wl.Chunks > 1 {
		floor = sim.Time(wl.Period)
	}
	for i := range wl.CompletedAt {
		o.handovers += devs[i].Handovers
		end := wl.CompletedAt[i]
		if end >= 0 {
			o.completed++
		} else {
			end = wl.LastData[i]
		}
		if end > wl.DialAt[i] && wl.Recv[i] > 0 {
			o.goodput.Add(float64(wl.Recv[i]*8) / (end - wl.DialAt[i]).Seconds() / 1e6)
		} else {
			o.goodput.Add(0)
		}
		stall := wl.MaxGap[i] - floor
		if stall < 0 {
			stall = 0
		}
		o.stall.Add(stall.Seconds())
	}
	return o
}

// renderFleet writes the fleet sections and scalars. The samples land
// under stable names so multi-seed runs pool them across seeds.
func renderFleet(res *stats.Result, devs []*Device, wl *Load, cfg fleetConfig, sections bool) {
	o := reduce(devs, wl)
	res.Scalars["completed"] = float64(o.completed)
	res.Scalars["handovers_scheduled"] = float64(o.handovers)
	res.Scalars["gap_p50_s"] = o.stall.Median()
	res.Scalars["gap_p99_s"] = o.stall.Quantile(0.99)
	res.Scalars["gap_max_s"] = o.stall.Max()
	res.Scalars["goodput_p10_mbps"] = o.goodput.Quantile(0.10)
	res.Scalars["goodput_p50_mbps"] = o.goodput.Median()
	res.Scalars["goodput_p90_mbps"] = o.goodput.Quantile(0.90)
	res.Sample("device goodput (Mb/s)").Add(o.goodput.Values()...)
	res.Sample("device worst stall (s)").Add(o.stall.Values()...)
	if !sections {
		return
	}

	counts := map[string]int{}
	hos := map[string]int{}
	for _, d := range devs {
		counts[d.Profile.Name]++
		hos[d.Profile.Name] += d.Handovers
	}
	res.Section("profile mix")
	res.Printf("%-12s %7s %10s\n", "profile", "devices", "handovers")
	for _, name := range ProfileNames() {
		if counts[name] == 0 {
			continue
		}
		res.Printf("%-12s %7d %10d\n", name, counts[name], hos[name])
	}

	res.Section("fleet outcome")
	res.Printf("completed %d/%d uploads; %d handovers scheduled\n",
		o.completed, cfg.Devices, o.handovers)
	res.Printf("worst stall   p50 %6.3fs  p99 %6.3fs  max %6.3fs\n",
		o.stall.Median(), o.stall.Quantile(0.99), o.stall.Max())
	res.Printf("goodput       p10 %6.2f   p50 %6.2f   p90 %6.2f Mb/s\n",
		o.goodput.Quantile(0.10), o.goodput.Median(), o.goodput.Quantile(0.90))
}
