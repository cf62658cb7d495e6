package mptcp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netem"
)

// TestQuickEndToEndIntegrity is the package's strongest property: under
// ARBITRARY per-path loss rates, delays and transfer sizes, every written
// byte is delivered exactly once, in order, or the connection's subflows
// die trying — the stream is never corrupted, duplicated into the app, or
// silently truncated while a path still works.
func TestQuickEndToEndIntegrity(t *testing.T) {
	f := func(seed int64, loss0, loss1 uint8, kb uint16, delayMs0, delayMs1 uint8) bool {
		l0 := float64(loss0%45) / 100 // 0–44 %
		l1 := float64(loss1%25) / 100 // 0–24 % (one path stays usable)
		size := (int(kb%512) + 8) << 10
		d0 := time.Duration(delayMs0%40+1) * time.Millisecond
		d1 := time.Duration(delayMs1%40+1) * time.Millisecond

		r := newRig(t, seed,
			netem.LinkConfig{RateBps: 20e6, Delay: d0},
			netem.LinkConfig{RateBps: 20e6, Delay: d1},
			Config{})
		r.sim.Run()
		if r.client == nil || !r.client.Established() {
			return false
		}
		r.client.OpenSubflow(r.net.ClientAddrs[1], 0, r.net.ServerAddr, 80, false)
		r.sim.Run()
		r.net.Path[0].AB.SetLoss(l0)
		r.net.Path[1].AB.SetLoss(l1)
		r.client.Write(size)
		r.sim.RunUntil(r.sim.Now() + 10*60*1_000_000_000) // 10 min budget
		// Exactly size bytes, in order (rcvTotal is the contiguous
		// frontier — overshoot would mean duplication into the app).
		return r.rcvTotal == uint64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(99))}); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSubflowChurn hammers the path-manager command API while a
// transfer runs: subflows are created and destroyed at random; the stream
// must still arrive complete as long as one subflow survives.
func TestChaosSubflowChurn(t *testing.T) {
	p0, p1 := fastPaths()
	r := newRig(t, 77, p0, p1, Config{})
	r.sim.Run()
	const total = 8 << 20
	r.client.Write(total)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		at := r.sim.Now().Add(time.Duration(i+1) * 100 * time.Millisecond)
		r.sim.ScheduleGlobal(at, "churn", func() {
			if r.client.Closed() {
				return
			}
			subs := r.client.Subflows()
			switch {
			case len(subs) < 2:
				r.client.OpenSubflow(r.net.ClientAddrs[rng.Intn(2)], 0, r.net.ServerAddr, 80, false)
			case rng.Intn(2) == 0:
				r.client.CloseSubflow(subs[rng.Intn(len(subs))], true)
			default:
				r.client.OpenSubflow(r.net.ClientAddrs[rng.Intn(2)], 0, r.net.ServerAddr, 80, false)
			}
		})
	}
	r.sim.RunUntil(60 * 1_000_000_000)
	if r.rcvTotal != total {
		t.Fatalf("chaos lost data: %d / %d", r.rcvTotal, total)
	}
	if r.client.Stats().BytesReinjected == 0 {
		t.Fatal("churn without any reinjection — aborts did not strand data?")
	}
}

// TestSchedulerComparison runs the same two-path transfer under both
// schedulers as a sanity ablation: both must complete, and lowest-RTT must
// not lose to round-robin on asymmetric paths (it is the kernel default
// for a reason).
func TestSchedulerComparison(t *testing.T) {
	run := func(sched string) float64 {
		r := newRig(t, 55,
			netem.LinkConfig{RateBps: 20e6, Delay: 5 * time.Millisecond},
			netem.LinkConfig{RateBps: 20e6, Delay: 60 * time.Millisecond},
			Config{Scheduler: sched})
		r.sim.Run()
		r.client.OpenSubflow(r.net.ClientAddrs[1], 0, r.net.ServerAddr, 80, false)
		r.sim.Run()
		r.client.Write(16 << 20)
		start := r.sim.Now()
		for r.rcvTotal < 16<<20 && r.sim.Now() < start+60*1_000_000_000 {
			r.sim.RunFor(100 * time.Millisecond)
		}
		return (r.sim.Now() - start).Seconds()
	}
	lrtt := run("lowest-rtt")
	rr := run("round-robin")
	if lrtt > 55 || rr > 55 {
		t.Fatalf("a scheduler failed to complete: lowest-rtt=%.1fs round-robin=%.1fs", lrtt, rr)
	}
	if lrtt > rr*1.5 {
		t.Fatalf("lowest-RTT (%.1fs) much worse than round-robin (%.1fs)", lrtt, rr)
	}
}

// TestBackupNeverUsedOnHealthyPath runs long enough for slow-start
// overshoot and recovery cycles: the backup subflow must stay cold the
// whole time (RFC 6824 semantics — not merely "prefer non-backup").
func TestBackupNeverUsedOnHealthyPath(t *testing.T) {
	p0, p1 := fastPaths()
	r := newRig(t, 66, p0, p1, Config{})
	r.sim.Run()
	backup, err := r.client.OpenSubflow(r.net.ClientAddrs[1], 0, r.net.ServerAddr, 80, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.client.Write(1 << 20)
		r.sim.RunFor(2 * time.Second)
	}
	if backup.Info().Stats.BytesSent != 0 {
		t.Fatalf("backup carried %d bytes on a healthy primary", backup.Info().Stats.BytesSent)
	}
	if r.rcvTotal != 10<<20 {
		t.Fatalf("received %d", r.rcvTotal)
	}
}
