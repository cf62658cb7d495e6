package experiments

import (
	"fmt"

	"repro/internal/mptcp"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// schedSweepConfig parameterises the scheduler-sweep experiment.
type schedSweepConfig struct {
	Schedulers []string // registered names; empty sweeps every one
	Loss       float64  // loss ratio on the primary path
	Blocks     int      // blocks per scheduler run
}

func init() {
	scenario.Register("schedsweep",
		"scheduler sweep: the §4.3 streaming workload once per registered packet scheduler",
		func(p *scenario.Params) (*scenario.Spec, error) {
			// Every registered scheduler over the §4.3 streaming workload
			// at 30 % loss; smoke shrinks the default before the read.
			blocks := 120
			if p.Bool("smoke", false) {
				blocks = 10
			}
			// The scheduler sweep has no controller dimension; the policy
			// param is consumed and ignored so blanket overrides
			// (`mpexp all -controller X`) pass through, as the old CLI did.
			p.Str("policy", "")
			var scheds []string
			if s := p.Str("sched", ""); s != "" {
				scheds = []string{s} // sweep a single policy
			}
			return schedSweepSpec(schedSweepConfig{
				Schedulers: p.Strings("schedulers", scheds),
				Loss:       p.Float("loss", 0.30),
				Blocks:     p.Int("blocks", blocks),
			})
		})
	scenario.RegisterParams("schedsweep",
		scenario.ParamDoc{Key: "schedulers", Type: "list", Desc: "swept packet schedulers (default: every registered one)"},
		scenario.ParamDoc{Key: "loss", Type: "float", Default: "0.30", Desc: "primary-path loss ratio"},
		scenario.ParamDoc{Key: "blocks", Type: "int", Default: "120", Desc: "blocks per scheduler"},
	)
}

// schedSweepSpec declares the sweep: the paper's streaming workload (two
// 5 Mbps / 10 ms paths, one 64 KB block per second, full-mesh path
// manager) once per scheduler, comparing the block-completion-time
// distributions. This is the sweep the scheduler-comparison literature
// (Paasch et al., CSWS'14) performs across policies: lowest-rtt is the
// kernel default, round-robin the classic alternative, redundant the
// latency-optimal bound, and weighted-rtt the probabilistic middle
// ground.
func schedSweepSpec(cfg schedSweepConfig) (*scenario.Spec, error) {
	scheds := cfg.Schedulers
	if len(scheds) == 0 {
		scheds = mptcp.SchedulerNames()
	}
	for _, name := range scheds {
		if _, err := mptcp.LookupScheduler(name); err != nil {
			return nil, err
		}
	}

	var runs []*scenario.RunSpec
	for _, name := range scheds {
		streamCfg := fig2bConfig{Sched: name, Blocks: cfg.Blocks, Period: streamPeriod, BlockSize: streamBlockSize}
		runs = append(runs, streamRun(streamCfg, cfg.Loss, "", name))
	}

	return &scenario.Spec{
		Name:  "schedsweep",
		Title: "Scheduler sweep — §4.3 streaming workload per scheduler",
		Desc: fmt.Sprintf("2 x 5 Mbps, 10 ms paths; %d B block every %v; %d blocks; %.0f%% loss; full-mesh PM",
			streamBlockSize, streamPeriod, cfg.Blocks, cfg.Loss*100),
		Runs: runs,
		Render: func(res *stats.Result, _ []*scenario.Run) {
			res.Section("CDF of block completion time (seconds) per scheduler")
			res.RenderCDFs(scheds...)

			res.Section("summary")
			res.Printf("%-14s %8s %8s %8s %8s\n", "scheduler", "median", "p90", "p99", "max")
			for _, name := range scheds {
				s := res.Samples[name]
				res.Printf("%-14s %7.2fs %7.2fs %7.2fs %7.2fs\n",
					name, s.Median(), s.Quantile(0.9), s.Quantile(0.99), s.Max())
				res.Scalars[name+"_median_s"] = s.Median()
				res.Scalars[name+"_p90_s"] = s.Quantile(0.9)
			}
		},
	}, nil
}
