package mptcp

import (
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/trace"
)

// TestTracedDataPathAllocFree pins the tracing tentpole: with a
// recorder attached to both endpoints, the steady-state seg→tcp→netem
// data path (write → schedule → transmit → deliver → ack) still
// performs zero heap allocations per operation. Entity registration
// happens at connection setup; after warm-up, recording is a store
// into the preallocated rings.
func TestTracedDataPathAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	p0, p1 := fastPaths()
	tr := trace.New(1 << 12)
	sh := tr.Shard("host")
	r := newRig(t, 1, p0, p1, Config{Trace: sh})
	r.sim.Run()
	if !r.client.Established() {
		t.Fatal("handshake failed")
	}
	// Warm every pool on the path (segments, packets, chunks, events)
	// and wrap the trace ring at least once, so the measurement runs in
	// drop-oldest steady state.
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
	if sh.Dropped() == 0 {
		t.Fatal("ring never wrapped; the test did not exercise drop-oldest steady state")
	}
	if avg > 0.05 {
		t.Fatalf("traced data path allocates %.2f allocs/op, want ~0", avg)
	}
}

// TestTracedRunMatchesUntraced pins the observer property at the
// protocol level: the same seed with and without a recorder delivers
// byte-identical connection outcomes — tracing never perturbs the
// simulation.
func TestTracedRunMatchesUntraced(t *testing.T) {
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
	tr := trace.New(1 << 10)
	tracedRcv, tracedStats := run(Config{Trace: tr.Shard("host")})
	if plainRcv != tracedRcv || plainStats != tracedStats {
		t.Fatalf("traced run diverged from untraced: rcv %d vs %d, stats %+v vs %+v",
			plainRcv, tracedRcv, plainStats, tracedStats)
	}
	if tr.Shard("host").Len() == 0 {
		t.Fatal("traced run recorded nothing")
	}
}
