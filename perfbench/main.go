// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload — a registered scenario at fixed
// parameters, single seed — repeatedly for a fixed time, checks that the
// simulated output is the expected one, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// runtime metrics off; with -trace 1 they are the per-layer ones, from
// runs with the scenario `metrics=` parameter on, the timing seams and
// the layer drivers. See README.md.
//
//	go run . -workload fleet-4k -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	_ "repro/internal/experiments" // registers scale and ctlstress
	"repro/internal/fleet"
	"repro/internal/scenario"
)

func main() {
	name := flag.String("workload", "", "workload to run (fleet-4k, fleet-4k-2shard, bulk, churn)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var out result
	if *traced == 1 {
		out = measureLayers(w, *seed, budget)
	} else {
		out = measureEndToEnd(w, *seed, budget)
	}
	printResult(os.Stdout, out)
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes one aligned line per metric, then the JSON line.
func printResult(f *os.File, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-36s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	buf, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(f, "%s\n", buf)
}

// rep is one Build + Execute of a workload.
type rep struct {
	build, topo, wall time.Duration
	allocBytes        uint64
	mallocs           uint64
	gcCycles          uint32
	gcPause           time.Duration

	events    uint64
	devices   int
	payload   uint64
	decisions uint64

	full    string // digest of report and simulated scalars
	scalars string // digest of the simulated scalars alone

	// Seam readings of traced runs: the merged metrics snapshot, Pick
	// calls and time, and the decisions of each policy instance and the
	// time spent in the policies.
	snap         merged
	picks        uint64
	pickBusy     time.Duration
	ctlDecisions []uint64
	ctlBusy      time.Duration
	err          error
}

func (r *rep) setup() time.Duration { return r.build + r.topo }

// runOnce builds and executes the workload once. Set-up is
// scenario.Build plus every Topology.Build; wall is the rest of Execute.
// A panic or a failed invariant is returned in rep.err.
func runOnce(w *workload, seed int64, traced bool) (r rep) {
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("%s seed %d: panic: %v", w.Name, seed, p)
		}
	}()
	params := make(map[string]string, len(w.Params)+1)
	for k, v := range w.Params {
		params[k] = v
	}
	if traced {
		params["metrics"] = "" // record runtime metrics, write no file
	}
	pr := &probe{timed: traced}
	cur = pr
	defer func() { cur = nil }() // let the finished simulation be collected

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	sp, err := scenario.Build(w.Scenario, scenario.NewParams(params))
	r.build = time.Since(t0)
	if err != nil {
		r.err = err
		return r
	}
	pr.instrument(sp)
	t1 := time.Now()
	res := scenario.Execute(sp, seed)
	exec := time.Since(t1)
	runtime.ReadMemStats(&m1)

	r.topo = pr.topoBuild
	r.wall = exec - pr.topoBuild
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	sc := simScalars(res)
	r.full = digest(res.Report, sc)
	r.scalars = digest("", sc)
	for _, rt := range pr.runs {
		r.events += rt.Sim.Processed()
		r.devices += len(rt.Net.Clients)
		r.payload += delivered(rt)
	}
	for _, s := range pr.scheds {
		r.picks += s.picks
		r.pickBusy += s.busy
	}
	var ctlDecisions uint64
	for _, c := range pr.ctls {
		r.ctlDecisions = append(r.ctlDecisions, c.decisions)
		ctlDecisions += c.decisions
		r.ctlBusy += c.busy
	}
	if traced {
		r.snap = mergeSnapshots(pr.regs)
	}
	// Churn reports the decisions it applied; elsewhere count the
	// commands the policies issued.
	for k, v := range sc {
		if strings.HasSuffix(k, "_decision_n") {
			r.decisions += uint64(v)
		}
	}
	if r.decisions == 0 {
		r.decisions = ctlDecisions
	}
	if err := w.Check(sc); err != nil {
		r.err = fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
	}
	return r
}

// delivered reports the simulated payload bytes one run delivered to its
// receivers, from the workload's own accounting where it keeps one.
func delivered(rt *scenario.Run) uint64 {
	switch wl := rt.Spec.Workload.(type) {
	case *fleet.Load:
		var n uint64
		for _, b := range wl.Recv {
			n += b
		}
		return n
	case *scenario.FanOut:
		var n uint64
		for _, at := range wl.CompletedAt {
			if at >= 0 {
				n += uint64(wl.Bytes)
			}
		}
		return n
	}
	// Long-lived connections (ctlstress) stay open: read the receivers.
	var n uint64
	for _, ep := range rt.ServerEps {
		for _, c := range ep.Conns() {
			n += c.RcvBytes()
		}
	}
	return n
}

// checker accumulates the output check over a set of runs.
type checker struct {
	w         *workload
	seed      int64
	attempted int
	failed    int
	errs      []error
	want      string // digest recorded for the seed ("" when none is)
	got       string // digest of the first run
}

func newChecker(w *workload, seed int64) *checker {
	c := &checker{w: w, seed: seed}
	c.want = expected[c.key()][seed]
	return c
}

// key names the workload whose recorded digests apply.
func (c *checker) key() string {
	if c.w.SameAs != "" {
		return c.w.SameAs
	}
	return c.w.Name
}

// add records one run. It fails when the run panicked or failed its
// invariants, or when its digest differs from the recorded one or from
// the first run's (the simulation must be deterministic).
func (c *checker) add(r rep, digest string) {
	if c.got == "" {
		c.got = digest
	}
	err := r.err
	switch {
	case err != nil:
	case c.want != "" && digest != c.want:
		err = fmt.Errorf("%s seed %d: output digest %s, recorded %s", c.w.Name, c.seed, digest, c.want)
	case digest != c.got:
		err = fmt.Errorf("%s seed %d: output digest %s, first run %s", c.w.Name, c.seed, digest, c.got)
	}
	c.record(err)
}

// record counts one attempted run and its failure, if any.
func (c *checker) record(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		c.errs = append(c.errs, err)
	}
}

// reference runs the SameAs workload once when no digest is recorded for
// the seed, so a sharded run is always checked against one shard.
func (c *checker) reference() {
	if c.w.SameAs == "" || c.want != "" {
		return
	}
	ref, _ := lookupWorkload(c.w.SameAs)
	r := runOnce(ref, c.seed, false)
	if r.err == nil && r.full != c.got {
		r.err = fmt.Errorf("%s seed %d: output %s differs from %s's %s", c.w.Name, c.seed, c.got, ref.Name, r.full)
	}
	c.record(r.err)
}

func (c *checker) report(out *result) {
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: output digest %s, recorded %q\n",
		c.w.Name, c.seed, c.got, c.want)
	for _, err := range c.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
	out.Attempted, out.Failed = c.attempted, c.failed
	out.Correct = c.failed == 0 && c.attempted > 0
}

// measureEndToEnd runs the workload untraced until the budget is spent
// (at least once) and reports the median of every end-to-end metric.
func measureEndToEnd(w *workload, seed int64, budget time.Duration) result {
	chk := newChecker(w, seed)
	var reps []rep
	for start := time.Now(); chk.attempted == 0 || time.Since(start) < budget; {
		r := runOnce(w, seed, false)
		chk.add(r, r.full)
		if r.err == nil {
			reps = append(reps, r)
			fmt.Fprintf(os.Stderr, "perfbench: run %d: setup %.4fs wall %.4fs alloc %.1fMB events %d\n",
				len(reps), r.setup().Seconds(), r.wall.Seconds(), float64(r.allocBytes)/1e6, r.events)
		}
	}
	chk.reference()
	out := result{Metrics: map[string]metric{}}
	chk.report(&out)
	if len(reps) == 0 {
		return out
	}
	per := func(f func(r *rep) float64) float64 { return medianOf(reps, f) }
	set := func(name string, v float64) { out.Metrics[name] = metric{v, unitOf(endToEnd, name)} }
	set("wall_s", per(func(r *rep) float64 { return r.wall.Seconds() }))
	set("setup_s", per(func(r *rep) float64 { return r.setup().Seconds() }))
	set("devices_per_s", per(func(r *rep) float64 { return float64(r.devices) / r.wall.Seconds() }))
	set("payload_mb_per_s", per(func(r *rep) float64 { return float64(r.payload) / 1e6 / r.wall.Seconds() }))
	set("decisions_per_s", per(func(r *rep) float64 { return float64(r.decisions) / r.wall.Seconds() }))
	set("alloc_mb", per(func(r *rep) float64 { return float64(r.allocBytes) / 1e6 }))
	set("peak_rss_mb", peakRSSMB())
	return out
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("perfbench: metric " + name + " is not in the catalogue")
}

// peakRSSMB reports the process's peak resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// medianOf returns the median of f over reps (which must not be empty).
func medianOf(reps []rep, f func(r *rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i := range reps {
		xs[i] = f(&reps[i])
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
