package main

// Workspace and manifest glue: `mpexp init` creates a .mpexp experiment
// workspace, `mpexp run`/`sweep` accept scenario manifests (JSON files)
// next to plain scenario names and capture their artifacts into the
// workspace when one is active, and `mpexp diff` compares two captured
// runs scalar-by-scalar.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/mptcp"
	"repro/internal/scenario"
	"repro/internal/smapp"
	"repro/internal/workspace"
)

// isManifestPath distinguishes a manifest file argument from a scenario
// name: scenario names never contain a path separator or a .json suffix.
func isManifestPath(arg string) bool {
	if strings.HasSuffix(arg, ".json") {
		return true
	}
	if !strings.ContainsRune(arg, '/') && !strings.ContainsRune(arg, os.PathSeparator) {
		return false
	}
	fi, err := os.Stat(arg)
	return err == nil && fi.Mode().IsRegular()
}

// resolveWorkspace maps the -ws flag to a workspace: "" auto-discovers
// .mpexp in the current directory (nil when absent), "none" disables
// capture, anything else must name a workspace (or its parent).
func resolveWorkspace(wsFlag string) *workspace.Workspace {
	switch wsFlag {
	case "none":
		return nil
	case "":
		ws, err := workspace.Discover(".")
		if err != nil {
			die(err)
		}
		return ws
	default:
		ws, err := workspace.Open(wsFlag)
		if err != nil {
			die(err)
		}
		return ws
	}
}

// manifestFor turns a run/sweep/all argument into the manifest to
// execute: a manifest file as loaded, or a bare scenario name as an
// empty manifest of that scenario — then layers the explicitly passed
// flags and -set pairs on top. A flag-driven run and its equivalent
// manifest file therefore take one execution path and produce
// byte-identical result.json files.
func manifestFor(fs *flag.FlagSet, rf *runFlags, arg string, sets []string, smoke bool) *scenario.Manifest {
	m := &scenario.Manifest{Name: arg, Scenario: arg}
	if isManifestPath(arg) {
		var err error
		if m, err = scenario.LoadManifest(arg); err != nil {
			die(err)
		}
	}
	applyFlagOverrides(fs, rf, m, sets, smoke)
	return m
}

// applyFlagOverrides layers explicitly set CLI flags (and -set pairs)
// over a loaded manifest: the file is the default, the command line
// wins. Only flags the user actually passed override (flag.Visit).
func applyFlagOverrides(fs *flag.FlagSet, rf *runFlags, m *scenario.Manifest, sets []string, smoke bool) {
	setParam := func(k, v string) {
		if m.Params == nil {
			m.Params = make(map[string]string)
		}
		m.Params[k] = v
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			m.Seed = *rf.seed
		case "seeds":
			m.Seeds = *rf.seeds
		case "shards":
			m.Shards = *rf.shards
		case "sched":
			setParam("sched", *rf.sched)
		case "controller":
			setParam("policy", *rf.controller)
		case "trace":
			m.Trace = true
			m.TraceFile = *rf.trace
		case "metrics":
			m.Metrics = *rf.metrics
		case "metrics-out":
			m.Metrics = true
			m.MetricsFile = *rf.metricsOut
		case "metrics-addr":
			// Runtime-only: the endpoint serves whatever run is live, but
			// the registry only exists on a metered run.
			m.Metrics = true
		}
	})
	if smoke {
		setParam("smoke", "true")
	}
	for _, kv := range sets {
		k, v, _ := strings.Cut(kv, "=")
		// The common keys a manifest carries as fields keep their -set
		// spelling (bare `-set trace` records without a file).
		switch k {
		case "trace":
			m.Trace, m.TraceFile = true, v
		case "metrics":
			m.Metrics, m.MetricsFile = true, v
		case "trace_cap", "shards":
			n, err := strconv.Atoi(v)
			if err != nil {
				die(fmt.Errorf("parameter %s=%q: %v", k, v, err))
			}
			if k == "shards" {
				m.Shards = n
			} else {
				m.TraceCap = n
			}
		default:
			setParam(k, v)
		}
	}
}

// runManifest executes a manifest — into the workspace when one is
// active, otherwise straight to stdout. It reports whether every seed of
// every cell succeeded.
func runManifest(rf *runFlags, m *scenario.Manifest) bool {
	rf.validate()
	if err := m.Validate(); err != nil {
		die(err)
	}
	startProfiles(*rf.cpuprofile, *rf.memprofile)
	rf.startIntrospection()
	if ws := resolveWorkspace(*rf.ws); ws != nil {
		info, err := ws.Run(m, workspace.RunOptions{
			Parallel: *rf.parallel,
			Echo:     func(report string) { fmt.Print(report) },
			Progress: func(line string) { fmt.Fprintln(os.Stderr, line) },
		})
		if err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "[run %s stored in %s]\n", info.ID, info.Dir)
		return info.OK
	}
	if m.Sweep == nil {
		p := m.BuildParams()
		m.TraceParams(p, m.TraceFile)
		m.MetricsParams(p, m.MetricsFile)
		return rf.runSeeds(m.RunName(), scenario.Job(m.Scenario, p), m.BaseSeed(), m.EffectiveSeeds())
	}
	cfg := m.SweepConfig(*rf.parallel)
	m.TraceParams(cfg.Base, m.TraceFile)
	m.MetricsParams(cfg.Base, m.MetricsFile)
	cfg.OnCell = func(c *scenario.Cell) {
		fmt.Fprintf(os.Stderr, "[cell %s done]\n", c.Label)
	}
	sr, err := scenario.Sweep(cfg)
	if err != nil {
		die(err)
	}
	fmt.Print(sr.Report())
	for _, c := range sr.Cells {
		if len(c.Multi.Failed()) > 0 {
			return false
		}
	}
	return true
}

// cmdInit creates a workspace: `mpexp init [dir]` (default: the current
// directory).
func cmdInit(args []string) {
	dir := "."
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		dir = args[0]
		args = args[1:]
	}
	if len(args) > 0 {
		usage()
	}
	ws, err := workspace.Init(dir)
	if err != nil {
		die(err)
	}
	fmt.Printf("initialized experiment workspace at %s\n", ws.Root)
	fmt.Printf("  - author manifests under %s (an example is included)\n", ws.ManifestDir())
	fmt.Printf("  - `mpexp run <manifest.json>` stores artifacts under %s/runs\n", ws.Root)
	fmt.Printf("  - `mpexp diff <runA> <runB>` compares two stored runs\n")
}

// cmdDiff compares two workspace run directories (paths or run ids):
// `mpexp diff [-tol F] [-ws DIR] <runA> <runB>`. It exits zero only
// when every compared value matches within the tolerance.
func cmdDiff(args []string) bool {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	tol := fs.Float64("tol", 0, "relative tolerance: values match when |a-b| <= tol*max(|a|,|b|) (0 = exact)")
	wsFlag := fs.String("ws", "", "workspace for resolving run ids (default: .mpexp in the current directory)")
	// Positionals first, flags after — the same convention as `report`.
	i := 0
	for i < len(args) && !strings.HasPrefix(args[i], "-") {
		i++
	}
	pos := args[:i]
	fs.Parse(args[i:])
	pos = append(pos, fs.Args()...)
	if len(pos) != 2 {
		die(fmt.Errorf("diff: want exactly two runs (directories or workspace run ids), got %d", len(pos)))
	}
	dirs := make([]string, 2)
	for j, arg := range pos {
		if fi, err := os.Stat(arg); err == nil && fi.IsDir() {
			dirs[j] = arg
			continue
		}
		ws := resolveWorkspace(*wsFlag)
		if ws == nil {
			die(fmt.Errorf("diff: %s is not a directory and no workspace is active to resolve it as a run id", arg))
		}
		dirs[j] = ws.RunDir(arg)
	}
	rep, err := workspace.DiffRuns(dirs[0], dirs[1], workspace.DiffOptions{RelTol: *tol})
	if err != nil {
		die(err)
	}
	fmt.Printf("diff %s %s (tol %g):\n%s", pos[0], pos[1], *tol, rep.String())
	return rep.Clean()
}

// listJSON is the machine-readable `mpexp list -json` dump: every
// registered scenario with its typed parameter docs, the common
// parameters Build accepts on all of them, and the scheduler/controller
// registries — enough to author and validate manifests against the live
// binary.
func listJSON() {
	type entry struct {
		Name   string              `json:"name"`
		Desc   string              `json:"desc"`
		Params []scenario.ParamDoc `json:"params,omitempty"`
	}
	out := struct {
		Scenarios    []entry             `json:"scenarios"`
		CommonParams []scenario.ParamDoc `json:"common_params"`
		Schedulers   []entry             `json:"schedulers"`
		Controllers  []entry             `json:"controllers"`
	}{CommonParams: scenario.CommonParamDocs()}
	for _, in := range scenario.Scenarios() {
		out.Scenarios = append(out.Scenarios, entry{
			Name: in.Name, Desc: in.Desc, Params: scenario.ParamDocs(in.Name)})
	}
	for _, in := range mptcp.Schedulers() {
		out.Schedulers = append(out.Schedulers, entry{Name: in.Name, Desc: in.Desc})
	}
	for _, in := range smapp.Controllers() {
		out.Controllers = append(out.Controllers, entry{Name: in.Name, Desc: in.Desc})
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		die(err)
	}
	os.Stdout.Write(append(buf, '\n'))
}
