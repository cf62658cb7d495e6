// Benchmarks regenerating every figure of the paper's evaluation, plus
// ablations of the design knobs the experiments expose and
// micro-benchmarks of the hot paths. Each figure benchmark fans its b.N
// iterations out as independent seeds on the internal/runner worker pool,
// so the reported custom metrics are aggregates over the seed
// distribution (see README.md) and `go test -bench=.` doubles as a
// multi-seed reproduction run:
//
//	BenchmarkFig2aBackup       mean/p90 switch_delay_s vs baseline minutes
//	BenchmarkFig2bStreaming    mean p90 block delay per variant
//	BenchmarkFig2cRefresh/...  mean median completion seconds per variant
//	BenchmarkFig3.../...       mean CAPA→JOIN delay and userspace penalty
//	BenchmarkSchedSweep        mean p90 block delay per scheduler
//	BenchmarkCtlSweep          mean p90 block delay per subflow controller
package main

import (
	"fmt"
	"net/netip"
	"strconv"
	"testing"
	"time"

	_ "repro/internal/experiments" // registers the scenarios run by name
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/nlmsg"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sweep fans b.N seeds of job across the worker pool and returns the
// aggregated scalar distributions. A failed seed fails the benchmark.
func sweep(b *testing.B, name string, job runner.Job) *runner.Multi {
	b.Helper()
	m := runner.Run(name, runner.Config{Seeds: b.N, BaseSeed: 1}, job)
	for _, sr := range m.Failed() {
		b.Fatalf("seed %d: %v", sr.Seed, sr.Err)
	}
	return m
}

// report emits the across-seed mean of one aggregated scalar as a custom
// benchmark metric (adding p90 when the seed count supports a tail).
func report(b *testing.B, m *runner.Multi, scalar, metric string, scale float64) {
	b.Helper()
	s, ok := m.ScalarSummary()[scalar]
	if !ok {
		b.Fatalf("scalar %q missing from %s", scalar, m.Name)
	}
	b.ReportMetric(s.Mean()*scale, metric)
	if s.N() >= 8 {
		b.ReportMetric(s.Quantile(0.9)*scale, metric+"_p90")
	}
}

func BenchmarkFig2aBackup(b *testing.B) {
	m := sweep(b, "fig2a", scenario.Job("fig2a", nil))
	report(b, m, "switch_delay_s", "switch_delay_s", 1)
}

func BenchmarkFig2aKernelBaseline(b *testing.B) {
	m := sweep(b, "fig2a-baseline", scenario.Job("fig2a", scenario.NewParams(map[string]string{"baseline": "true", "loss": "1.0"})))
	report(b, m, "backup_first_data_s", "backup_first_data_s", 1)
}

func BenchmarkFig2bStreaming(b *testing.B) {
	m := sweep(b, "fig2b", scenario.Job("fig2b", scenario.NewParams(map[string]string{"blocks": "60"})))
	report(b, m, "smart_p90_s", "smart_p90_s", 1)
	report(b, m, "fullmesh_same_loss_p90_s", "fullmesh_p90_s", 1)
}

// Ablation (§4.3): where in the block the progress probe sits.
func BenchmarkFig2bProbePointAblation(b *testing.B) {
	for _, checkMs := range []int{250, 500, 750} {
		probe := time.Duration(checkMs * int(time.Millisecond)).String()
		b.Run(probe, func(b *testing.B) {
			m := sweep(b, "fig2b-probe", scenario.Job("fig2b", scenario.NewParams(map[string]string{
				"blocks":      "40",
				"loss_levels": "", // smart curve only
				"probe_at":    probe,
			})))
			report(b, m, "smart_p90_s", "smart_p90_s", 1)
		})
	}
}

func BenchmarkFig2cNdiffports(b *testing.B) {
	// Consecutive seeds are safe: fig2c spaces its per-trial seeds by
	// 1000, so benchmark seeds only collide 1000 apart. Completion
	// scales linearly with size, hence 25 MB.
	m := sweep(b, "fig2c-ndiffports", scenario.Job("fig2c", scenario.NewParams(map[string]string{"trials": "3", "mb": "25"})))
	report(b, m, "ndiffports_median_s", "median_s_25MB", 1)
}

func BenchmarkFig2cRefresh(b *testing.B) {
	m := sweep(b, "fig2c-refresh", scenario.Job("fig2c", scenario.NewParams(map[string]string{"trials": "3", "mb": "25"})))
	report(b, m, "refresh_median_s", "median_s_25MB", 1)
}

func BenchmarkFig3KernelPM(b *testing.B) {
	m := sweep(b, "fig3-kernel", scenario.Job("fig3", scenario.NewParams(map[string]string{"requests": "100"})))
	report(b, m, "kernel_mean_ms", "capa_join_us", 1000)
}

func BenchmarkFig3UserspacePM(b *testing.B) {
	m := sweep(b, "fig3-userspace", scenario.Job("fig3", scenario.NewParams(map[string]string{"requests": "100"})))
	report(b, m, "user_mean_ms", "capa_join_us", 1000)
	report(b, m, "delta_us", "penalty_us", 1)
}

// Ablation (§4.2): the backup controller's RTO threshold.
func BenchmarkFig2aThresholdAblation(b *testing.B) {
	for _, th := range []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second} {
		b.Run(th.String(), func(b *testing.B) {
			m := sweep(b, "fig2a-threshold", scenario.Job("fig2a", scenario.NewParams(map[string]string{"threshold": th.String()})))
			report(b, m, "switch_delay_s", "switch_delay_s", 1)
		})
	}
}

// Ablation (Fig. 3): the Netlink latency model under CPU stress.
func BenchmarkFig3StressedAblation(b *testing.B) {
	m := sweep(b, "fig3-stressed", scenario.Job("fig3", scenario.NewParams(map[string]string{"requests": "100", "stressed": "true"})))
	report(b, m, "delta_us", "penalty_us", 1)
}

func BenchmarkLongLived(b *testing.B) {
	m := sweep(b, "longlived", scenario.Job("longlived", nil))
	report(b, m, "messages_delivered", "delivered", 1)
	report(b, m, "reestablishments", "reestablishments", 1)
}

// BenchmarkCtlSweep compares every registered subflow controller on the
// §4.3 streaming workload — the controller-space analogue of the
// scheduler sweep, driven entirely through the smapp registry.
func BenchmarkCtlSweep(b *testing.B) {
	m := sweep(b, "ctlsweep", scenario.Job("ctlsweep", scenario.NewParams(map[string]string{"blocks": "40"})))
	report(b, m, "stream_p90_s", "stream_p90_s", 1)
	report(b, m, "backup_p90_s", "backup_p90_s", 1)
	report(b, m, "fullmesh_p90_s", "fullmesh_p90_s", 1)
	report(b, m, "none_p90_s", "none_p90_s", 1)
}

// BenchmarkSchedSweep compares every registered scheduler on the §4.3
// streaming workload (the CSWS'14-style policy sweep).
func BenchmarkSchedSweep(b *testing.B) {
	m := sweep(b, "schedsweep", scenario.Job("schedsweep", scenario.NewParams(map[string]string{"blocks": "40"})))
	report(b, m, "lowest-rtt_p90_s", "lowest_rtt_p90_s", 1)
	report(b, m, "redundant_p90_s", "redundant_p90_s", 1)
	report(b, m, "weighted-rtt_p90_s", "weighted_rtt_p90_s", 1)
	report(b, m, "round-robin_p90_s", "round_robin_p90_s", 1)
}

// BenchmarkScale stresses the pooled data path: N concurrent connections
// × M subflows through a shared bottleneck. The custom metrics put
// simulator throughput (segs/sec of wall time) into the bench artifact;
// with -benchmem the allocs/op column tracks the zero-allocation goal.
func BenchmarkScale(b *testing.B) {
	m := sweep(b, "scale", scenario.Job("scale", scenario.NewParams(map[string]string{"conns": "8", "kb": "512"})))
	b.ReportAllocs()
	report(b, m, "segs_per_wall_s", "segs_per_wall_s", 1)
	report(b, m, "events_per_wall_s", "events_per_wall_s", 1)
	report(b, m, "lowest-rtt/kernel_goodput_mbps", "goodput_mbps", 1)
}

// BenchmarkScaleShards runs the same scale workload on the single-loop
// baseline and on the sharded parallel core (4 worker event loops). The
// star carries 4 server hosts so the topology partitions across shards
// and the fan-out dials them round-robin; simulated results are
// bit-identical at every shard count (TestGoldenShardInvariance), so the
// only thing that moves between the sub-benchmarks is events/sec of
// wall time. The ≥2x speedup target applies on multi-core runners —
// with GOMAXPROCS=1 the shard goroutines serialise and the sharded run
// only pays synchronisation overhead.
func BenchmarkScaleShards(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var events float64
			for i := 0; i < b.N; i++ {
				p := scenario.NewParams(map[string]string{
					"conns":   "8",
					"kb":      "512",
					"servers": "4",
					"sched":   "lowest-rtt",
					"shards":  strconv.Itoa(shards),
					"wall":    "false",
				})
				sp, err := scenario.Build("scale", p)
				if err != nil {
					b.Fatal(err)
				}
				res := scenario.Execute(sp, 1)
				events += res.Scalars["events_per_wall_s"]
			}
			b.ReportMetric(events/float64(b.N), "events_per_wall_s")
		})
	}
}

// BenchmarkFleet exercises the fleet mobility corpus: a mid-sized
// heterogeneous device fleet uploading while its per-device handover
// timelines flap the radios. The custom metrics track corpus survival
// (completions) and the fleet-level goodput median so policy-layer
// regressions under mobility show up in the bench artifact.
func BenchmarkFleet(b *testing.B) {
	m := sweep(b, "fleet", scenario.Job("fleet", scenario.NewParams(map[string]string{"devices": "32", "kb": "32", "duration": "8s"})))
	b.ReportAllocs()
	report(b, m, "completed", "completed", 1)
	report(b, m, "goodput_p50_mbps", "goodput_p50_mbps", 1)
	report(b, m, "gap_p99_s", "gap_p99_s", 1)
}

// BenchmarkCtlStress exercises the zero-allocation Netlink control plane
// end to end: flap-driven subflow churn with a fullmesh controller bound
// per connection, in both immediate and coalesced delivery modes. The
// custom metrics put the policy-decision latency (event emitted →
// command applied) of the coalesced cell into the bench artifact; with
// -benchmem the allocs/op column tracks the pooled codec. The smoke size
// (4 conns, 32 KB each, 1 s horizon) keeps it bench-sized.
func BenchmarkCtlStress(b *testing.B) {
	m := sweep(b, "ctlstress", scenario.Job("ctlstress", scenario.NewParams(map[string]string{"smoke": "true"})))
	b.ReportAllocs()
	report(b, m, "decision_p50_us", "decision_p50_us", 1)
	report(b, m, "decision_p99_us", "decision_p99_us", 1)
	report(b, m, "immediate_event_frames", "immediate_frames", 1)
	report(b, m, "coalesced_event_frames", "coalesced_frames", 1)
}

// BenchmarkFig2aTraced reruns the Fig. 2a sweep with the event recorder
// armed on every host and link, quantifying the full tracing overhead
// (record volume rides along as a custom metric; compare ns/op and
// allocs/op against BenchmarkFig2aBackup for the cost of observation).
func BenchmarkFig2aTraced(b *testing.B) {
	// A bare trace records and analyses without a file.
	m := sweep(b, "fig2a-traced", scenario.Job("fig2a", scenario.NewParams(map[string]string{"trace": ""})))
	b.ReportAllocs()
	report(b, m, "switch_delay_s", "switch_delay_s", 1)
	report(b, m, "trace_records", "trace_records", 1)
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkTraceRecord measures the recorder's hot call in isolation: a
// store into a warm ring (wrapping included). allocs/op must stay 0.
func BenchmarkTraceRecord(b *testing.B) {
	tr := trace.New(1 << 12)
	sh := tr.Shard("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.Rec(sim.Time(i), trace.KSend, 1, uint64(i), 1380, uint64(i), trace.FRetrans)
	}
}

// BenchmarkMetricsInc measures the metrics hot path in isolation: a
// counter increment plus a histogram observe on a bound per-shard slot.
// allocs/op must stay exactly 0 (internal/metrics
// TestRecordingDoesNotAllocate and internal/mptcp
// TestMeteredDataPathAllocFree pin it at the unit and data-path level).
func BenchmarkMetricsInc(b *testing.B) {
	reg := metrics.New(1)
	c := reg.Counter("bench_counter", 0)
	h := reg.HistogramLinear("bench_hist", 8, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(uint64(i & 7))
	}
}

// BenchmarkLinkDelivery measures the in-memory seg→netem→host delivery
// path in isolation: pooled segment, pooled packet, pooled events. The
// allocs/op column must stay ~0 (see internal/netem TestLinkDeliveryAllocFree).
func BenchmarkLinkDelivery(b *testing.B) {
	s := sim.NewWorld(1, 1)
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	rx := netem.NewHost(s.HostClock(0, "rx"), "rx")
	rx.SetHandler(func(p *netem.Packet) { p.Release() })
	tx := netem.NewHost(s.HostClock(0, "tx"), "tx")
	wire := netem.NewLink(tx.Clock(), "wire", rx, netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond})
	tx.AddIface("eth0", src, wire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg := seg.Shared.Get()
		sg.Tuple = seg.FourTuple{SrcIP: src, DstIP: dst, SrcPort: 1000, DstPort: 80}
		sg.Flags = seg.ACK | seg.PSH
		sg.PayloadLen = 1380
		d := sg.ScratchDSS()
		d.HasMap, d.DataSeq, d.MapLen = true, uint64(i), 1380
		tx.Send(netem.NewPacket(sg))
		s.RunFor(2 * time.Millisecond)
	}
}

// BenchmarkSegmentAppendWire is the zero-allocation marshal (reused buffer).
func BenchmarkSegmentAppendWire(b *testing.B) {
	s := &seg.Segment{
		Tuple:      seg.FourTuple{SrcPort: 1, DstPort: 2},
		Flags:      seg.ACK | seg.PSH,
		PayloadLen: 1380,
		Options: []seg.Option{&seg.DSS{
			HasDataAck: true, DataAck: 1 << 40,
			HasMap: true, DataSeq: 1 << 41, MapLen: 1380,
		}},
	}
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = s.AppendWire(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentClonePooled is the pooled deep copy used for handshake
// retransmissions (and formerly for every transmitted segment).
func BenchmarkSegmentClonePooled(b *testing.B) {
	s := seg.Shared.Get()
	s.Tuple = seg.FourTuple{SrcPort: 1, DstPort: 2}
	s.Flags = seg.ACK | seg.PSH
	s.PayloadLen = 1380
	d := s.ScratchDSS()
	d.HasMap, d.DataSeq, d.MapLen = true, 7, 1380
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seg.Shared.Put(seg.Shared.Clone(s))
	}
}

// BenchmarkNetlinkEventMarshal measures the pooled control-plane encode:
// append-marshal into a reused wire buffer. allocs/op must stay 0
// (TestPooledRoundTripAllocFree pins it exactly).
func BenchmarkNetlinkEventMarshal(b *testing.B) {
	ev := &nlmsg.Event{
		Kind: nlmsg.EvTimeout, Token: 0xdead, RTO: 3200 * time.Millisecond,
		Backoffs: 4, HasTuple: true,
		Tuple: seg.FourTuple{SrcPort: 1, DstPort: 2},
	}
	buf := nlmsg.Wire.Get()
	buf = ev.AppendMarshal(buf[:0], 0, 1) // warm the buffer past -benchtime=1x
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ev.AppendMarshal(buf[:0], uint32(i), 1)
	}
	nlmsg.Wire.Put(buf)
}

// BenchmarkNetlinkEventParse measures the pooled decode: in-place
// unmarshal (attr views borrow the wire buffer) plus event parse into
// reused scratch. allocs/op must stay 0.
func BenchmarkNetlinkEventParse(b *testing.B) {
	ev := &nlmsg.Event{Kind: nlmsg.EvSubClosed, Token: 0xdead, Errno: 110}
	wire := ev.Marshal(1, 1)
	var m nlmsg.Message
	var out nlmsg.Event
	if _, err := nlmsg.UnmarshalInto(wire, &m); err != nil { // warm past -benchtime=1x
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nlmsg.UnmarshalInto(wire, &m); err != nil {
			b.Fatal(err)
		}
		if err := nlmsg.ParseEventInto(&m, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentMarshal(b *testing.B) {
	s := &seg.Segment{
		Tuple:      seg.FourTuple{SrcPort: 1, DstPort: 2},
		Flags:      seg.ACK | seg.PSH,
		PayloadLen: 1380,
		Options: []seg.Option{&seg.DSS{
			HasDataAck: true, DataAck: 1 << 40,
			HasMap: true, DataSeq: 1 << 41, MapLen: 1380,
		}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorEventThroughput(b *testing.B) {
	w := sim.NewWorld(1, 1)
	s := w.HostClock(0, "tick")
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.After(time.Microsecond, "tick", tick)
		}
	}
	b.ResetTimer()
	s.After(time.Microsecond, "tick", tick)
	// One window over the whole chain (tick i fires at i µs), so the
	// measurement is the event core, not per-event run bookkeeping.
	w.RunUntil(sim.Time(b.N) * sim.Microsecond)
}
