package mptcp

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/tcp"
	"repro/internal/testutil"
)

// meteredConfig binds every connection- and subflow-level metric handle
// to slot 0 of a fresh single-slot registry — the densest instrumentation
// a real run ever attaches.
func meteredConfig(reg *metrics.Registry) Config {
	return Config{
		Metrics: Metrics{
			SchedPicks:     reg.HistogramLinear("mptcp_sched_picks", 8, 0),
			ReinjectBytes:  reg.Counter("mptcp_reinject_bytes", 0),
			DupBytes:       reg.Counter("mptcp_dup_bytes", 0),
			ReassemblyOOHW: reg.Gauge("mptcp_reassembly_oo_hw", 0),
		},
		TCP: tcp.Config{Metrics: tcp.Metrics{
			Retrans:     reg.Counter("tcp_retrans_segs", 0),
			FastRetrans: reg.Counter("tcp_fast_retrans", 0),
			RTOTimeouts: reg.Counter("tcp_rto_timeouts", 0),
		}},
	}
}

// TestMeteredDataPathAllocFree pins the metrics tentpole: with every
// metric handle bound on both endpoints, the steady-state seg→tcp→netem
// data path (write → schedule → transmit → deliver → ack) still performs
// zero heap allocations per operation. Handle binding happens at
// endpoint construction; after warm-up, recording is a plain add into a
// preallocated per-shard slot.
func TestMeteredDataPathAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	reg := metrics.New(1)
	p0, p1 := fastPaths()
	r := newRig(t, 1, p0, p1, meteredConfig(reg))
	r.sim.Run()
	if !r.client.Established() {
		t.Fatal("handshake failed")
	}
	// Warm every pool on the path (segments, packets, chunks, events).
	for i := 0; i < 1024; i++ {
		r.client.Write(1380)
		r.sim.RunFor(20 * time.Millisecond)
	}
	before := r.rcvTotal
	avg := testing.AllocsPerRun(2000, func() {
		r.client.Write(1380)
		r.sim.RunFor(20 * time.Millisecond)
	})
	if r.rcvTotal <= before {
		t.Fatal("no data was delivered during the measurement")
	}
	if m := reg.Snapshot().Get("mptcp_sched_picks"); m == nil || m.Value == 0 {
		t.Fatal("scheduler picks were not recorded; the path is not instrumented")
	}
	if avg > 0.05 {
		t.Fatalf("metered data path allocates %.2f allocs/op, want 0", avg)
	}
}

// TestMeteredRunMatchesUnmetered pins the observer property: the same
// seed with and without metric handles delivers byte-identical
// connection outcomes — recording never perturbs the simulation.
func TestMeteredRunMatchesUnmetered(t *testing.T) {
	run := func(cfg Config) (uint64, ConnStats) {
		p0, p1 := fastPaths()
		r := newRig(t, 42, p0, p1, cfg)
		r.sim.Run()
		r.net.Path[0].AB.SetLoss(0.2)
		r.client.Write(1 << 20)
		r.client.Close()
		r.sim.RunFor(2 * time.Minute)
		return r.rcvTotal, r.client.Stats()
	}
	plainRcv, plainStats := run(Config{})
	reg := metrics.New(1)
	metRcv, metStats := run(meteredConfig(reg))
	if plainRcv != metRcv || plainStats != metStats {
		t.Fatalf("metered run diverged from unmetered: rcv %d vs %d, stats %+v vs %+v",
			plainRcv, metRcv, plainStats, metStats)
	}
	if m := reg.Snapshot().Get("tcp_retrans_segs"); m == nil || m.Value == 0 {
		t.Fatal("lossy metered run recorded no retransmissions")
	}
}
