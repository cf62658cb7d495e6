package experiments

import (
	"fmt"
	"time"

	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/pm"
	"repro/internal/scenario"
	"repro/internal/smapp"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// fig2cConfig parameterises the §4.4 ECMP experiment.
type fig2cConfig struct {
	Sched     string // registered scheduler name; "" = lowest-rtt
	Policy    string // registered controller for the smart variant (paper: refresh)
	Trials    int    // independent runs per variant (different hash seeds/ports)
	FileBytes int    // 100 MB in the paper
	Subflows  int    // 5 in the paper
	Paths     int    // 4 in the paper
}

func init() {
	scenario.Register("fig2c",
		"ECMP load balancing (§4.4): 100 MB completion CDFs, in-kernel ndiffports vs the refresh controller",
		func(p *scenario.Params) (*scenario.Spec, error) {
			// The paper's parameters: 100 MB over 5 subflows on a 4-path
			// 8 Mbps fabric with 10/20/30/40 ms delays. Smoke shrinks the
			// defaults before the reads, so an explicit -set still wins.
			trials, mb := 20, 100
			if p.Bool("smoke", false) {
				trials, mb = 2, 10
			}
			return fig2cSpec(fig2cConfig{
				Sched:     p.Str("sched", ""),
				Policy:    p.Str("policy", "refresh"),
				Trials:    p.Int("trials", trials),
				FileBytes: p.Int("mb", mb) << 20,
				Subflows:  p.Int("subflows", 5),
				Paths:     p.Int("paths", 4),
			}), nil
		})
	scenario.RegisterParams("fig2c",
		scenario.ParamDoc{Key: "trials", Type: "int", Default: "20", Desc: "trials per variant"},
		scenario.ParamDoc{Key: "mb", Type: "int", Default: "100", Desc: "file size in MB"},
		scenario.ParamDoc{Key: "subflows", Type: "int", Default: "5", Desc: "subflows per connection"},
		scenario.ParamDoc{Key: "paths", Type: "int", Default: "4", Desc: "ECMP paths in the fabric"},
	)
}

// fig2cRun declares one file transfer over the ECMP fabric: the refresh
// variant runs the userspace controller, the baseline the in-kernel
// ndiffports path manager. Each trial offsets its seed by 1000 so the
// fabric hash and source ports draw independent randomness, and both
// variants of a trial share that seed.
func fig2cRun(cfg fig2cConfig, trial int, refresh bool) *scenario.RunSpec {
	var paths []netem.LinkConfig
	for i := 0; i < cfg.Paths; i++ {
		paths = append(paths, netem.LinkConfig{
			RateBps: 8e6,
			Delay:   time.Duration(10*(i+1)) * time.Millisecond,
		})
	}
	policy := ""
	variant := "ndiffports"
	var kernelPM func() mptcp.PathManager
	if refresh {
		policy = cfg.Policy
		variant = "refresh"
	} else {
		kernelPM = func() mptcp.PathManager { return pm.NewNDiffPorts(cfg.Subflows) }
	}
	wl := &scenario.Bulk{Bytes: cfg.FileBytes}
	// Worst case is single-path (~105 s for 100 MB); generous horizon.
	horizon := time.Duration(float64(cfg.FileBytes*8)/8e6*1.5) * time.Second

	probes := []scenario.Probe{
		scenario.SampleInto(variant, func(rt *scenario.Run, s *stats.Sample) {
			// A transfer the horizon cut off counts as the horizon.
			done := horizon.Seconds()
			if wl.Sink.Done {
				done = wl.Sink.CompletedAt.Seconds()
			}
			s.Add(done)
		}),
	}
	if !refresh {
		probes = append(probes, scenario.SampleInto("ndiffports paths used",
			func(rt *scenario.Run, s *stats.Sample) {
				used := map[int]bool{}
				for _, sfi := range rt.Stack.Info(rt.Conn).Subflows {
					if sfi.State == tcp.StateEstablished && sfi.Stats.BytesSent > 0 {
						used[rt.Net.PathIndex(sfi.Tuple.SrcPort, sfi.Tuple.DstPort)] = true
					}
				}
				s.Add(float64(len(used)))
			}))
	}

	return &scenario.RunSpec{
		Label:      fmt.Sprintf("%s trial %d", variant, trial),
		SeedOffset: int64(trial) * 1000,
		Topology:   scenario.ECMP{Paths: paths},
		Workload:   wl,
		Sched:      cfg.Sched,
		Policy:     policy,
		PolicyCfg:  smapp.ControllerConfig{Subflows: cfg.Subflows},
		KernelPM:   kernelPM,
		Settle:     time.Millisecond,
		Probes:     probes,
		Stop: scenario.Stop{
			Horizon: horizon,
			Poll:    time.Second,
			Until:   wl.Done,
		},
	}
}

// fig2cSpec declares the load-balancing experiment: per trial, one
// ndiffports and one refresh transfer (sharing the trial seed), rendered
// as the paper's CDF of the 100 MB completion time. The paper reports
// ndiffports clustering around 28/37/55 s (5 subflows hashed onto 4/3/2
// distinct paths) while refresh converges to all four paths; bounds are
// 27.8 s (four paths) and 111.7 s (one path).
func fig2cSpec(cfg fig2cConfig) *scenario.Spec {
	var runs []*scenario.RunSpec
	for trial := 0; trial < cfg.Trials; trial++ {
		runs = append(runs, fig2cRun(cfg, trial, false), fig2cRun(cfg, trial, true))
	}
	return &scenario.Spec{
		Name:  "fig2c",
		Title: "Fig. 2c — smarter exploitation of flow-based LB (§4.4)",
		Desc: fmt.Sprintf("%d MB file, %d subflows over %d ECMP paths (8 Mbps; 10/20/30/40 ms); %d trials",
			cfg.FileBytes>>20, cfg.Subflows, cfg.Paths, cfg.Trials),
		Runs: runs,
		Render: func(res *stats.Result, runs []*scenario.Run) {
			ndiff := res.Sample("ndiffports")
			refresh := res.Sample("refresh")
			res.Section("CDF of completion time (seconds)")
			res.RenderCDFs("ndiffports", "refresh")

			res.Section("summary")
			res.Printf("%-12s %8s %8s %8s %8s\n", "variant", "min", "median", "p90", "max")
			for _, n := range []string{"ndiffports", "refresh"} {
				s := res.Samples[n]
				res.Printf("%-12s %7.1fs %7.1fs %7.1fs %7.1fs\n",
					n, s.Min(), s.Median(), s.Quantile(0.9), s.Max())
			}
			res.Printf("\ndistinct paths used by ndiffports: mean %.2f (refresh converges to %d)\n",
				res.Sample("ndiffports paths used").Mean(), cfg.Paths)
			res.Printf("reference bounds: best (all %d paths) ≈ %.1fs, worst (1 path) ≈ %.1fs\n",
				cfg.Paths,
				float64(cfg.FileBytes*8)/(float64(cfg.Paths)*8e6),
				float64(cfg.FileBytes*8)/8e6)
			res.Scalars["ndiffports_median_s"] = ndiff.Median()
			res.Scalars["refresh_median_s"] = refresh.Median()
			res.Scalars["refresh_max_s"] = refresh.Max()
		},
	}
}
