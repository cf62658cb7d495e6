package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/metrics"
)

// measureLayers alternates untraced and traced runs of the workload until
// the budget is spent (at least one of each), then runs the layer
// drivers. Counters come from the last traced run's metrics snapshot
// (they are deterministic); host times are medians over the runs. The
// traced runs' simulated scalars must equal the untraced runs'.
func measureLayers(w *workload, seed int64, budget time.Duration) result {
	chk := newChecker(w, seed)
	var plain, traced []rep
	for start := time.Now(); chk.attempted == 0 || time.Since(start) < budget; {
		r := runOnce(w, seed, false)
		chk.add(r, r.full)
		if r.err == nil {
			plain = append(plain, r)
		}
		t := runOnce(w, seed, true)
		if t.err == nil && len(plain) > 0 && t.scalars != plain[0].scalars {
			t.err = fmt.Errorf("%s seed %d: traced scalars %s differ from untraced %s",
				w.Name, seed, t.scalars, plain[0].scalars)
		}
		chk.record(t.err)
		if t.err == nil {
			traced = append(traced, t)
		}
	}
	chk.reference()
	out := result{Metrics: map[string]metric{}}
	chk.report(&out)
	if len(plain) == 0 || len(traced) == 0 {
		return out
	}
	set := func(name string, v float64) { out.Metrics[name] = metric{v, unitOf(perLayer, name)} }
	last := &traced[len(traced)-1]
	snap := last.snap

	// sim
	wall := medianOf(plain, func(r *rep) float64 { return r.wall.Seconds() })
	events := float64(plain[0].events)
	set("sim.events", events)
	set("sim.events_per_s", events/wall)
	set("sim.ns_per_event", wall*1e9/events)
	set("sim.globals", snap.value("sim_globals"))
	barriers := snap.value("sim_barriers")
	set("sim.barriers", barriers)
	set("sim.windows_boundary", snap.value("sim_windows_boundary"))
	set("sim.cross_sends", snap.value("sim_cross_sends"))
	set("sim.events_per_barrier", events/max(barriers, 1))
	for i := 0; i < 2; i++ {
		busy := medianOf(traced, func(r *rep) float64 {
			return r.snap.shard("sim_window_busy_ns", i) / 1e9
		})
		waitS := medianOf(traced, func(r *rep) float64 {
			return r.snap.shard("sim_barrier_wait_ns", i) / 1e9
		})
		set(fmt.Sprintf("sim.busy_s.shard%d", i), busy)
		set(fmt.Sprintf("sim.barrier_wait_s.shard%d", i), waitS)
	}
	set("sim.eventpool_gets", snap.value("pool_simevent_gets"))
	set("sim.eventpool_news", snap.value("pool_simevent_news"))

	// netem
	set("netem.packets", snap.value("pool_packet_gets"))
	set("netem.drop_queue", snap.value("netem_drop_queue"))
	set("netem.drop_rand", snap.value("netem_drop_rand"))
	set("netem.drop_down", snap.value("netem_drop_down"))
	set("netem.pool_outstanding", snap.value("pool_packet_gets")-snap.value("pool_packet_puts"))

	// seg
	segGets := snap.value("pool_seg_gets")
	set("seg.pool_gets", segGets)
	set("seg.pool_miss_ratio", snap.value("pool_seg_news")/max(segGets, 1))

	// tcp
	set("tcp.retrans_segs", snap.value("tcp_retrans_segs"))
	set("tcp.rto_timeouts", snap.value("tcp_rto_timeouts"))
	set("tcp.fast_retrans", snap.value("tcp_fast_retrans"))

	// mptcp
	picks := last.picks
	pickBusy := medianOf(traced, func(r *rep) float64 { return r.pickBusy.Seconds() })
	set("mptcp.sched_picks", float64(picks))
	set("mptcp.pick_busy_s", pickBusy)
	set("mptcp.pick_ns", pickBusy*1e9/max(float64(picks), 1))
	reinject, dup := snap.value("mptcp_reinject_bytes"), snap.value("mptcp_dup_bytes")
	payload := float64(plain[0].payload)
	set("mptcp.reinject_bytes", reinject)
	set("mptcp.useful_ratio", payload/max(payload+reinject+dup, 1))
	set("mptcp.reassembly_oo_hw", snap.value("mptcp_reassembly_oo_hw"))

	// nlmsg
	set("nlmsg.wire_gets", snap.value("pool_wire_gets"))
	set("nlmsg.wire_news", snap.value("pool_wire_news"))

	// core
	sent := snap.value("ctl_events_sent")
	set("core.events_sent", sent)
	set("core.events_dropped", snap.value("ctl_events_dropped"))
	set("core.flushes", snap.value("ctl_flushes"))
	set("core.queue_hw", snap.value("ctl_queue_hw"))
	set("core.coalesce_ratio", snap.value("ctl_events_coalesced")/max(sent, 1))

	// controller
	set("controller.commands", snap.value("ctl_commands"))
	var decisions uint64
	lo, hi := uint64(0), uint64(0)
	for i, d := range last.ctlDecisions {
		decisions += d
		if i == 0 || d < lo {
			lo = d
		}
		hi = max(hi, d)
	}
	set("controller.decisions", float64(decisions))
	set("controller.decisions_per_conn_min", float64(lo))
	set("controller.decisions_per_conn_max", float64(hi))
	set("controller.callback_busy_s", medianOf(traced, func(r *rep) float64 { return r.ctlBusy.Seconds() }))

	// scenario, go
	set("scenario.build_s", medianOf(plain, func(r *rep) float64 { return r.build.Seconds() }))
	set("scenario.topology_build_s", medianOf(plain, func(r *rep) float64 { return r.topo.Seconds() }))
	set("go.gc_cycles", medianOf(plain, func(r *rep) float64 { return float64(r.gcCycles) }))
	set("go.gc_pause_s", medianOf(plain, func(r *rep) float64 { return r.gcPause.Seconds() }))
	set("go.mallocs_per_event", medianOf(plain, func(r *rep) float64 { return float64(r.mallocs) / float64(r.events) }))

	// the traced run
	tracedWall := medianOf(traced, func(r *rep) float64 { return r.wall.Seconds() })
	set("trace.overhead_s", tracedWall-wall)
	set("trace.overhead_ratio", (tracedWall-wall)/wall)

	// layer drivers
	driversStart := time.Now()
	for _, depth := range []struct {
		name string
		n    int
		ops  int
	}{{"1e4", 1e4, 5e5}, {"1e5", 1e5, 5e5}, {"1e6", 1e6, 3e5}} {
		c := driveQueue(depth.n, depth.ops, uint64(seed))
		set("sim.queue_ns_per_op.depth_"+depth.name, c.ns)
		set("sim.queue_allocs_per_op.depth_"+depth.name, c.allocs)
	}
	c := driveLink(1e5)
	set("netem.link_ns_per_packet", c.ns)
	set("netem.link_allocs_per_packet", c.allocs)
	c = driveSubflow(5e4)
	set("tcp.send_ack_ns", c.ns)
	set("tcp.send_ack_allocs", c.allocs)
	c = drivePickReassembly(2e5)
	set("mptcp.pick_reasm_ns", c.ns)
	set("mptcp.pick_reasm_allocs", c.allocs)
	c = driveEventMarshal(5e5)
	set("nlmsg.event_marshal_ns", c.ns)
	set("nlmsg.event_marshal_allocs", c.allocs)
	c = driveEventParse(5e5)
	set("nlmsg.event_parse_ns", c.ns)
	set("nlmsg.event_parse_allocs", c.allocs)
	c = driveDecision(1e5)
	set("controller.decision_ns", c.ns)
	set("controller.decision_allocs", c.allocs)
	fmt.Fprintf(os.Stderr, "perfbench: layer drivers took %.2fs\n", time.Since(driversStart).Seconds())
	return out
}

// merged is a snapshot summed over the registries of a spec's runs:
// counters and histograms add, gauges take the maximum.
type merged struct {
	vals   map[string]float64
	shards map[string][]float64
}

func mergeSnapshots(regs []*metrics.Registry) merged {
	m := merged{vals: map[string]float64{}, shards: map[string][]float64{}}
	for _, r := range regs {
		for _, mt := range r.Snapshot().Metrics {
			v := float64(mt.Value)
			if mt.Kind == "gauge" {
				m.vals[mt.Name] = max(m.vals[mt.Name], v)
			} else {
				m.vals[mt.Name] += v
			}
			per := mt.Shards
			if len(per) == 0 {
				per = []uint64{mt.Value}
			}
			sh := m.shards[mt.Name]
			for len(sh) < len(per) {
				sh = append(sh, 0)
			}
			for i, x := range per {
				sh[i] += float64(x)
			}
			m.shards[mt.Name] = sh
		}
	}
	return m
}

func (m merged) value(name string) float64 { return m.vals[name] }

// shard returns one shard's value (0 when the run had fewer shards).
func (m merged) shard(name string, i int) float64 {
	if sh := m.shards[name]; i < len(sh) {
		return sh[i]
	}
	return 0
}
