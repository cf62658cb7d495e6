package main

// metricDef describes one reported metric. End-to-end metrics are what a
// user of the simulator sees (host time, memory, work per second);
// per-layer metrics come from the traced run and the layer drivers and
// name the end-to-end metric they should move, and on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Layer  string // module the metric belongs to ("" for end-to-end)
	Moves  string // end-to-end metric it should move (per-layer only)
	On     string // workload(s) on which it should move it
	Doc    string
}

// endToEnd lists the metrics of an untraced run (--trace 0), printed for
// every workload. The headline throughput of each workload is
// devices_per_s (fleet), payload_mb_per_s (bulk) and decisions_per_s
// (churn); the others are still measured on every workload.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Doc: "host time from the end of set-up to the end of the simulation"},
	{Name: "setup_s", Unit: "s", Better: "lower", Doc: "scenario.Build plus every Topology.Build"},
	{Name: "devices_per_s", Unit: "1/s", Better: "higher", Doc: "client hosts simulated (summed over the spec's runs) / wall_s"},
	{Name: "payload_mb_per_s", Unit: "MB/s", Better: "higher", Doc: "simulated payload bytes delivered to receivers / wall_s"},
	{Name: "decisions_per_s", Unit: "1/s", Better: "higher", Doc: "controller decisions applied / wall_s"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Doc: "Go heap bytes allocated during set-up and run"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Doc: "peak resident set of the benchmark process"},
}

const (
	fleetWLs = "fleet-4k,fleet-4k-2shard"
	allWLs   = "fleet-4k,fleet-4k-2shard,bulk,churn"
)

// perLayer lists the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	// sim: the event core.
	{"sim.events", "count", "lower", "sim", "wall_s", "bulk,fleet-4k", "events executed"},
	{"sim.events_per_s", "1/s", "higher", "sim", "wall_s", "bulk,fleet-4k", "events executed / untraced wall_s"},
	{"sim.ns_per_event", "ns", "lower", "sim", "wall_s", "bulk,fleet-4k", "untraced wall_s / events"},
	{"sim.globals", "count", "lower", "sim", "wall_s", "fleet-4k-2shard", "whole-simulation (all shards parked) events"},
	{"sim.barriers", "count", "lower", "sim", "wall_s", "fleet-4k-2shard", "shard synchronisation points"},
	{"sim.windows_boundary", "count", "lower", "sim", "wall_s", "fleet-4k-2shard", "two-phase boundary windows"},
	{"sim.cross_sends", "count", "lower", "sim", "wall_s", "fleet-4k-2shard", "cross-shard messages"},
	{"sim.events_per_barrier", "count", "higher", "sim", "wall_s", "fleet-4k-2shard", "events / barriers (events when there is no barrier)"},
	{"sim.busy_s.shard0", "s", "lower", "sim", "wall_s", "fleet-4k-2shard", "shard 0 time executing events inside barriers"},
	{"sim.busy_s.shard1", "s", "lower", "sim", "wall_s", "fleet-4k-2shard", "shard 1 time executing events inside barriers (0 at one shard)"},
	{"sim.barrier_wait_s.shard0", "s", "lower", "sim", "wall_s", "fleet-4k-2shard", "shard 0 time waiting for the slowest shard"},
	{"sim.barrier_wait_s.shard1", "s", "lower", "sim", "wall_s", "fleet-4k-2shard", "shard 1 time waiting for the slowest shard (0 at one shard)"},
	{"sim.eventpool_gets", "count", "lower", "sim", "alloc_mb", "fleet-4k", "pooled events handed out"},
	{"sim.eventpool_news", "count", "lower", "sim", "alloc_mb", "fleet-4k", "pooled-event misses that heap-allocated"},
	{"sim.queue_ns_per_op.depth_1e4", "ns", "lower", "sim", "wall_s", "fleet-4k", "driver: Schedule plus pop at 10^4 pending events"},
	{"sim.queue_ns_per_op.depth_1e5", "ns", "lower", "sim", "wall_s", "fleet-4k", "driver: Schedule plus pop at 10^5 pending events"},
	{"sim.queue_ns_per_op.depth_1e6", "ns", "lower", "sim", "wall_s", "fleet-4k", "driver: Schedule plus pop at 10^6 pending events"},
	{"sim.queue_allocs_per_op.depth_1e4", "allocs", "lower", "sim", "alloc_mb", "fleet-4k", "driver: heap allocations per Schedule plus pop at 10^4"},
	{"sim.queue_allocs_per_op.depth_1e5", "allocs", "lower", "sim", "alloc_mb", "fleet-4k", "driver: heap allocations per Schedule plus pop at 10^5"},
	{"sim.queue_allocs_per_op.depth_1e6", "allocs", "lower", "sim", "alloc_mb", "fleet-4k", "driver: heap allocations per Schedule plus pop at 10^6"},

	// netem: links and hosts.
	{"netem.packets", "count", "lower", "netem", "payload_mb_per_s", "bulk", "packets put on the network (packet pool gets)"},
	{"netem.drop_queue", "count", "lower", "netem", "payload_mb_per_s", "bulk", "drop-tail queue drops"},
	{"netem.drop_rand", "count", "lower", "netem", "payload_mb_per_s", "bulk", "random-loss drops"},
	{"netem.drop_down", "count", "lower", "netem", "payload_mb_per_s", "bulk", "drops on a link that was down"},
	{"netem.pool_outstanding", "count", "lower", "netem", "alloc_mb", allWLs, "packet pool gets - puts at run end (invariant, reported as measured)"},
	{"netem.link_ns_per_packet", "ns", "lower", "netem", "payload_mb_per_s", "bulk", "driver: Link.Send to delivery"},
	{"netem.link_allocs_per_packet", "allocs", "lower", "netem", "alloc_mb", "bulk", "driver: heap allocations per Link.Send to delivery"},

	// seg: segments and their pool.
	{"seg.pool_gets", "count", "lower", "seg", "alloc_mb", "bulk", "segment pool gets"},
	{"seg.pool_miss_ratio", "ratio", "lower", "seg", "alloc_mb", "bulk", "segment pool news / gets"},

	// tcp: subflows.
	{"tcp.retrans_segs", "count", "lower", "tcp", "devices_per_s", "fleet-4k", "RTO-driven retransmitted segments"},
	{"tcp.rto_timeouts", "count", "lower", "tcp", "devices_per_s", "fleet-4k", "retransmission timer expiries"},
	{"tcp.fast_retrans", "count", "lower", "tcp", "devices_per_s", "fleet-4k", "fast retransmissions"},
	{"tcp.send_ack_ns", "ns", "lower", "tcp", "payload_mb_per_s", "bulk", "driver: one subflow send to ack round trip"},
	{"tcp.send_ack_allocs", "allocs", "lower", "tcp", "alloc_mb", "bulk", "driver: heap allocations per send to ack round trip"},

	// mptcp: connections, schedulers and reassembly.
	{"mptcp.sched_picks", "count", "lower", "mptcp", "payload_mb_per_s", "bulk", "scheduler Pick calls (timing wrapper)"},
	{"mptcp.pick_busy_s", "s", "lower", "mptcp", "payload_mb_per_s", "bulk", "host time inside Pick (timing wrapper)"},
	{"mptcp.pick_ns", "ns", "lower", "mptcp", "payload_mb_per_s", "bulk", "pick_busy_s / sched_picks"},
	{"mptcp.pick_reasm_ns", "ns", "lower", "mptcp", "payload_mb_per_s", "bulk", "driver: one lowest-rtt pick plus one DSS reassembly"},
	{"mptcp.pick_reasm_allocs", "allocs", "lower", "mptcp", "alloc_mb", "bulk", "driver: heap allocations per pick plus reassembly"},
	{"mptcp.reinject_bytes", "B", "lower", "mptcp", "devices_per_s", "fleet-4k", "bytes queued again after a timeout or subflow death"},
	{"mptcp.useful_ratio", "ratio", "higher", "mptcp", "devices_per_s", "fleet-4k", "payload / (payload + reinjected + duplicated)"},
	{"mptcp.reassembly_oo_hw", "B", "lower", "mptcp", "alloc_mb", "bulk", "out-of-order reassembly high-water"},

	// nlmsg: the Netlink codec.
	{"nlmsg.wire_gets", "count", "lower", "nlmsg", "alloc_mb", "churn", "wire buffer pool gets"},
	{"nlmsg.wire_news", "count", "lower", "nlmsg", "alloc_mb", "churn", "wire buffer pool misses"},
	{"nlmsg.event_marshal_ns", "ns", "lower", "nlmsg", "decisions_per_s", "churn", "driver: pooled event append-marshal"},
	{"nlmsg.event_marshal_allocs", "allocs", "lower", "nlmsg", "alloc_mb", "churn", "driver: heap allocations per event marshal"},
	{"nlmsg.event_parse_ns", "ns", "lower", "nlmsg", "decisions_per_s", "churn", "driver: in-place unmarshal plus event parse"},
	{"nlmsg.event_parse_allocs", "allocs", "lower", "nlmsg", "alloc_mb", "churn", "driver: heap allocations per event parse"},

	// core: the Netlink path manager and library.
	{"core.events_sent", "count", "lower", "core", "decisions_per_s", "churn", "kernel events sent to userspace"},
	{"core.events_dropped", "count", "lower", "core", "decisions_per_s", "churn", "kernel events dropped on queue overflow (failed)"},
	{"core.flushes", "count", "lower", "core", "decisions_per_s", "churn", "coalescing flushes"},
	{"core.queue_hw", "count", "lower", "core", "decisions_per_s", "churn", "pending-event queue high-water"},
	{"core.coalesce_ratio", "ratio", "higher", "core", "decisions_per_s", "churn", "events coalesced / events sent"},

	// controller: the userspace policies.
	{"controller.commands", "count", "lower", "controller", "decisions_per_s", "churn", "commands sent through the control plane"},
	{"controller.decisions", "count", "lower", "controller", "decisions_per_s", "churn", "create/remove/backup commands issued by the policy"},
	{"controller.callback_busy_s", "s", "lower", "controller", "decisions_per_s", "churn,fleet-4k", "host time inside policy callbacks (timing wrapper)"},
	{"controller.decisions_per_conn_min", "count", "higher", "controller", "decisions_per_s", "churn", "fewest decisions of one connection's policy"},
	{"controller.decisions_per_conn_max", "count", "lower", "controller", "decisions_per_s", "churn", "most decisions of one connection's policy"},
	{"controller.decision_ns", "ns", "lower", "controller", "decisions_per_s", "churn", "driver: one fullmesh interface down/up decision"},
	{"controller.decision_allocs", "allocs", "lower", "controller", "alloc_mb", "churn", "driver: heap allocations per fullmesh decision"},

	// scenario and fleet: set-up.
	{"scenario.build_s", "s", "lower", "scenario", "setup_s", "fleet-4k", "scenario.Build: spec factory, fleet corpus, event compilation"},
	{"scenario.topology_build_s", "s", "lower", "scenario", "setup_s", "fleet-4k", "every Topology.Build of the spec"},

	// Go runtime.
	{"go.gc_cycles", "count", "lower", "go", "alloc_mb", "churn,fleet-4k", "garbage collections during set-up and run"},
	{"go.gc_pause_s", "s", "lower", "go", "peak_rss_mb", "churn,fleet-4k", "summed stop-the-world pauses"},
	{"go.mallocs_per_event", "allocs", "lower", "go", "alloc_mb", "churn,fleet-4k", "heap allocations / events"},

	// The traced run itself.
	{"trace.overhead_s", "s", "lower", "perfbench", "wall_s", allWLs, "median traced wall_s - median untraced wall_s"},
	{"trace.overhead_ratio", "ratio", "lower", "perfbench", "wall_s", allWLs, "trace.overhead_s / median untraced wall_s"},
}
