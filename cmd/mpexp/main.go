// Command mpexp is the scenario-driven CLI over the paper's experiments:
// every figure is a registered scenario spec (internal/scenario), so one
// generic `run` subcommand replaces per-figure wiring, `sweep` crosses
// any scenario over schedulers × controllers × parameter axes, and
// `list` enumerates what is registered.
//
// Usage:
//
//	mpexp run <scenario|manifest.json> [-set key=val ...] [-smoke] [common flags]
//	mpexp sweep <scenario|manifest.json> [-schedulers a,b] [-controllers x,y]
//	            [-vary key=v1,v2 ...] [-set key=val ...] [common flags]
//	mpexp list [-names|-json]
//	mpexp all            (every registered scenario + the paper's
//	                      baseline variants, honouring the common flags)
//	mpexp init [dir]
//	mpexp diff <runA> <runB> [-tol F] [-ws DIR]
//	mpexp report <tracefile ...> [-csv DIR] [-json]
//
// Any run can record an event trace (-trace FILE, or the trace=FILE
// scenario parameter): a binary log of scheduler picks, reinjections,
// DSS reassembly, per-subflow RTT/cwnd, link-level enqueue/drop/deliver
// and smapp policy decisions. `mpexp report` turns it into the
// mptcptrace-style analysis (per-subflow byte split, duplicate and
// reinjection accounting, handover gaps, link utilisation).
//
// run, sweep and all execute one thing: a scenario manifest
// (internal/scenario). A manifest file is loaded as written; a bare
// scenario name becomes a manifest built from the flags. Explicitly
// passed flags override either, and -set pairs override the flags; the
// result runs through the workspace when one is active, otherwise
// straight to stdout. -smoke shrinks only a scenario's defaults, so an
// explicit -set value always wins.
//
// Every run can fan one scenario out over many seeds (-seeds) on a
// bounded worker pool (-parallel), turning each figure's point estimate
// into a distribution, and can swap the packet scheduler (-sched) and
// the smart mode's subflow controller (-controller) for any registered
// policy. -cpuprofile/-memprofile FILE capture pprof profiles of any
// run's hot paths. With -seeds 1 the single run's full report prints;
// with more, per-seed scalars are aggregated into mean/median/p90/min/
// max and the raw distributions are pooled across seeds.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	_ "repro/internal/experiments" // registers the paper's scenario specs
	"repro/internal/metrics"
	"repro/internal/mptcp"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smapp"
	"repro/internal/stats"
	"repro/internal/trace"
)

// stringList collects a repeatable flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// runFlags are the multi-seed flags shared by every subcommand.
type runFlags struct {
	seed        *int64
	seeds       *int
	parallel    *int
	shards      *int
	sched       *string
	controller  *string
	trace       *string
	metrics     *bool
	metricsOut  *string
	metricsAddr *string
	pprofLabels *bool
	ws          *string
	cpuprofile  *string
	memprofile  *string

	serving bool // the -metrics-addr endpoint is up
}

func addRunFlags(fs *flag.FlagSet) *runFlags {
	return &runFlags{
		seed:     fs.Int64("seed", 1, "base simulation seed"),
		seeds:    fs.Int("seeds", 1, "independent seeds to run (seed, seed+1, ...)"),
		parallel: fs.Int("parallel", 0, "concurrent seeds (0 = GOMAXPROCS)"),
		shards: fs.Int("shards", 0, "worker event loops per simulation (0/1 = one loop; "+
			"results are bit-identical at any shard count)"),
		sched: fs.String("sched", "", fmt.Sprintf("packet scheduler: %s (default lowest-rtt)",
			strings.Join(mptcp.SchedulerNames(), ", "))),
		controller: fs.String("controller", "", fmt.Sprintf("subflow controller: %s (default: the scenario's paper policy)",
			strings.Join(smapp.ControllerNames(), ", "))),
		trace: fs.String("trace", "", "record an event trace to this file (inspect with `mpexp report`; "+
			"multi-run scenarios and sweeps write one file per run/cell; requires -seeds 1)"),
		metrics: fs.Bool("metrics", false, "record runtime metrics into the report "+
			"(and metrics.json in a workspace run directory; requires -seeds 1)"),
		metricsOut: fs.String("metrics-out", "", "write the metrics.json snapshot to this file "+
			"(implies -metrics; multi-run scenarios and sweeps write one file per run/cell)"),
		metricsAddr: fs.String("metrics-addr", "", "serve live metrics/expvar/pprof on this "+
			"address while the run executes (e.g. :6060; implies -metrics)"),
		pprofLabels: fs.Bool("pprof-labels", false, "label simulator goroutines with their shard in CPU profiles"),
		ws: fs.String("ws", "", "experiment workspace: a directory holding (or being) .mpexp "+
			"(default: auto-detect .mpexp in the current directory; \"none\" disables capture)"),
		cpuprofile: fs.String("cpuprofile", "", "write a CPU profile to this file (covers the whole run)"),
		memprofile: fs.String("memprofile", "", "write a heap profile to this file at exit"),
	}
}

// metricsOn reports whether any metrics flag asks for recording.
func (rf *runFlags) metricsOn() bool {
	return *rf.metrics || *rf.metricsOut != "" || *rf.metricsAddr != ""
}

// startIntrospection arms the runtime-only observability flags: the live
// metrics/pprof endpoint and shard-labelled profiles. Called before each
// manifest simulates; the endpoint starts once per subcommand, so `all`
// keeps serving on one address across its scenarios.
func (rf *runFlags) startIntrospection() {
	sim.SetProfileLabels(*rf.pprofLabels)
	if *rf.metricsAddr != "" && !rf.serving {
		addr, err := metrics.Serve(*rf.metricsAddr)
		if err != nil {
			die(err)
		}
		rf.serving = true
		fmt.Fprintf(os.Stderr, "[live metrics on http://%s/metrics, pprof under /debug/pprof/]\n", addr)
	}
}

// Profiling state: the first execute whose flags ask for a profile starts
// it; main stops and writes everything on the way out, so `mpexp all`
// collects one profile spanning every scenario.
var (
	cpuProfileOut  *os.File
	memProfilePath string
)

func startProfiles(cpu, mem string) {
	if cpu != "" && cpuProfileOut == nil {
		f, err := os.Create(cpu)
		if err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		cpuProfileOut = f
	}
	if mem != "" && memProfilePath == "" {
		memProfilePath = mem
	}
}

func stopProfiles() {
	if cpuProfileOut != nil {
		pprof.StopCPUProfile()
		cpuProfileOut.Close()
		cpuProfileOut = nil
	}
	if memProfilePath != "" {
		f, err := os.Create(memProfilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpexp:", err)
			return
		}
		runtime.GC() // materialise the live heap before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mpexp:", err)
		}
		f.Close()
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "mpexp:", err)
	os.Exit(2)
}

// validate rejects unknown -sched/-controller values up front (the
// "kernel" pseudo-policy is a scale sweep cell, not a registered
// controller — factories validate it per scenario).
func (rf *runFlags) validate() {
	if _, err := mptcp.LookupScheduler(*rf.sched); err != nil {
		die(err)
	}
	if *rf.controller != scenario.KernelPolicy {
		if _, err := smapp.LookupController(*rf.controller); err != nil {
			die(err)
		}
	}
}

// runSeeds executes job for seeds seed, seed+1, ... on the worker pool:
// one seed prints its full report, more print the across-seed aggregate.
// It reports whether every seed succeeded; callers chaining several
// scenarios (the all subcommand) decide the exit status only after the
// last one, so one failed seed cannot swallow the remaining figures.
func (rf *runFlags) runSeeds(label string, job runner.Job, seed int64, seeds int) bool {
	if seeds <= 1 {
		res, err := runOnce(job, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpexp: %s: %v\n", label, err)
			return false
		}
		fmt.Print(res.Report)
		return true
	}
	m := runner.Run(label, runner.Config{
		Seeds:    seeds,
		BaseSeed: seed,
		Parallel: *rf.parallel,
		OnDone: func(sr runner.SeedResult) {
			fmt.Fprintf(os.Stderr, "[seed %d done]\n", sr.Seed)
		},
	}, job)
	fmt.Print(m.Report())
	return len(m.Failed()) == 0
}

// runOnce executes a single seed, converting a scenario panic into an
// error instead of a crash.
func runOnce(job runner.Job, seed int64) (res *stats.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("seed %d panicked: %v", seed, r)
		}
	}()
	return job(seed), nil
}

func cmdRun(args []string) bool {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		usage()
	}
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	rf := addRunFlags(fs)
	var sets stringList
	fs.Var(&sets, "set", "scenario parameter key=value (repeatable)")
	smoke := fs.Bool("smoke", false, "reduced sizes/durations (CI smoke)")
	fs.Parse(args[1:])
	return runManifest(rf, manifestFor(fs, rf, args[0], sets, *smoke))
}

func cmdSweep(args []string) bool {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		usage()
	}
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	rf := addRunFlags(fs)
	schedulers := fs.String("schedulers", "", "comma-separated scheduler axis")
	controllers := fs.String("controllers", "", "comma-separated controller axis")
	var vary, sets stringList
	fs.Var(&vary, "vary", "parameter axis key=v1,v2,... (repeatable)")
	fs.Var(&sets, "set", "fixed scenario parameter key=value (repeatable)")
	smoke := fs.Bool("smoke", false, "reduced sizes/durations (CI smoke)")
	fs.Parse(args[1:])

	// Sweep axes given as flags override (or extend) the manifest's.
	m := manifestFor(fs, rf, args[0], sets, *smoke)
	if m.Sweep == nil {
		m.Sweep = &scenario.ManifestSweep{}
	}
	if *schedulers != "" {
		m.Sweep.Schedulers = strings.Split(*schedulers, ",")
	}
	if *controllers != "" {
		m.Sweep.Controllers = strings.Split(*controllers, ",")
	}
	if len(vary) > 0 {
		m.Sweep.Vary = nil
		for _, kv := range vary {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || k == "" || v == "" {
				die(fmt.Errorf("malformed -vary %q (want key=v1,v2,...)", kv))
			}
			m.Sweep.Vary = append(m.Sweep.Vary, scenario.ManifestAxis{Key: k, Values: strings.Split(v, ",")})
		}
	}
	return runManifest(rf, m)
}

// cmdReport analyses trace files recorded with `run -trace` (or the
// trace=FILE scenario parameter): per-connection subflow byte split,
// reinjection and duplicate accounting, RTT/cwnd summaries, handover
// gaps, per-link utilisation, and the policy event log.
func cmdReport(args []string) bool {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	csvDir := fs.String("csv", "", "also write the raw series as CSV files into this directory")
	jsonOut := fs.Bool("json", false, "emit the analysis as JSON instead of text")
	// Like the other subcommands, positional arguments (the trace files)
	// come first and flags follow.
	i := 0
	for i < len(args) && !strings.HasPrefix(args[i], "-") {
		i++
	}
	files := args[:i]
	fs.Parse(args[i:])
	files = append(files, fs.Args()...)
	if len(files) == 0 {
		die(fmt.Errorf("report: no trace file given (record one with `mpexp run <scenario> -trace FILE`)"))
	}
	ok := true
	for _, path := range files {
		d, err := trace.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpexp:", err)
			ok = false
			continue
		}
		a := trace.Analyze(d)
		if len(files) > 1 {
			fmt.Printf("### %s\n", path)
		}
		if *jsonOut {
			if err := a.JSON(os.Stdout); err != nil {
				die(err)
			}
		} else {
			fmt.Print(a.Report())
		}
		if *csvDir != "" {
			dir := *csvDir
			if len(files) > 1 {
				dir = filepath.Join(dir, filepath.Base(path))
			}
			if err := a.WriteCSVs(dir); err != nil {
				die(err)
			}
			fmt.Fprintf(os.Stderr, "[raw series written to %s]\n", dir)
		}
	}
	return ok
}

func cmdList(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	names := fs.Bool("names", false, "print bare scenario names only (for scripts)")
	jsonOut := fs.Bool("json", false, "machine-readable dump: scenarios, typed parameter docs, schedulers, controllers")
	fs.Parse(args)
	if *names {
		for _, n := range scenario.Names() {
			fmt.Println(n)
		}
		return
	}
	if *jsonOut {
		listJSON()
		return
	}
	fmt.Println("scenarios (mpexp run <name>):")
	for _, in := range scenario.Scenarios() {
		fmt.Printf("  %-12s %s\n", in.Name, in.Desc)
		for _, d := range scenario.ParamDocs(in.Name) {
			fmt.Printf("  %-12s   -set %-14s %s\n", "", d.Key, d.Desc)
		}
	}
	fmt.Println("\npacket schedulers (-sched):")
	for _, in := range mptcp.Schedulers() {
		fmt.Printf("  %-12s %s\n", in.Name, in.Desc)
	}
	fmt.Println("\nsubflow controllers (-controller):")
	for _, in := range smapp.Controllers() {
		fmt.Printf("  %-12s %s\n", in.Name, in.Desc)
	}
	fmt.Printf("  %-12s scale only: in-kernel full-mesh baseline, no userspace control plane\n",
		scenario.KernelPolicy)
}

// allVariants are the paper's baseline runs `mpexp all` adds next to a
// scenario's default configuration: a run label and its -set pair.
var allVariants = map[string]struct{ label, set string }{
	"fig2a":     {"fig2a-baseline", "baseline=true"},
	"fig3":      {"fig3-stressed", "stressed=true"},
	"longlived": {"longlived-plain", "plain=true"},
}

func cmdAll(args []string) bool {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	rf := addRunFlags(fs)
	smoke := fs.Bool("smoke", false, "reduced sizes/durations (CI smoke)")
	fs.Parse(args)
	ok := true
	run := func(label, name string, sets []string) {
		m := manifestFor(fs, rf, name, sets, *smoke)
		m.Name = label
		// "kernel" names a scale sweep cell, not a registered policy: the
		// figures fall back to their paper-default controllers.
		if name != "scale" && m.Params["policy"] == scenario.KernelPolicy {
			delete(m.Params, "policy")
		}
		// One trace/metrics file per scenario/variant (suffixed with its
		// label), so the sequential runs don't overwrite each other's output.
		if m.TraceFile != "" {
			m.TraceFile += "." + label
		}
		if m.MetricsFile != "" {
			m.MetricsFile += "." + label
		}
		ok = runManifest(rf, m) && ok
	}
	for _, name := range scenario.Names() {
		run(name, name, nil)
		if v, found := allVariants[name]; found {
			run(v.label, name, []string{v.set})
		}
	}
	return ok
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	start := time.Now()
	ok := true
	switch cmd {
	case "run":
		ok = cmdRun(args)
	case "sweep":
		ok = cmdSweep(args)
	case "list":
		cmdList(args)
		return
	case "init":
		cmdInit(args)
		return
	case "diff":
		if !cmdDiff(args) {
			os.Exit(1)
		}
		return
	case "report":
		if !cmdReport(args) {
			os.Exit(1)
		}
		return
	case "all":
		ok = cmdAll(args)
	default:
		usage()
	}
	stopProfiles()
	fmt.Fprintf(os.Stderr, "\n[%s completed in %v]\n", cmd, time.Since(start).Round(time.Millisecond))
	if !ok {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mpexp <run|sweep|init|diff|list|all|report> [flags]
Reproduces the figures of "SMAPP: Towards Smart Multipath TCP-enabled
APPlications" (CoNEXT'15) plus a scale stress workload, all expressed as
registered scenario specs.

  mpexp run <scenario|manifest.json> [-set key=val ...] [-smoke]
  mpexp sweep <scenario|manifest.json> [-schedulers a,b] [-controllers x,y]
              [-vary k=v1,v2]
  mpexp init [dir]                 create a .mpexp experiment workspace
  mpexp diff <runA> <runB> [-tol F] [-ws DIR]
  mpexp list [-names|-json]
  mpexp all
  mpexp report <tracefile ...> [-csv DIR] [-json]

Common flags: -seed N -seeds N -parallel N -shards N -sched NAME
-controller NAME -trace F -ws DIR -cpuprofile F -memprofile F. Run a
subcommand with -h for its flags; `+"`mpexp list`"+` shows every registered
scenario, scheduler, and controller. With a .mpexp workspace in the current
directory (create one with `+"`mpexp init`"+`), run/sweep store their results,
reports, traces, and resolved manifests under .mpexp/runs/, and
`+"`mpexp diff`"+` compares two stored runs scalar-by-scalar.`)
	os.Exit(2)
}
