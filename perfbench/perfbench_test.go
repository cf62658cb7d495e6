package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/stats"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogNamesUnitsAndTargets(t *testing.T) {
	seen := map[string]bool{}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	wls := map[string]bool{}
	for _, w := range workloads {
		wls[w.Name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if d.Doc == "" {
			t.Errorf("metric %q has no definition", d.Name)
		}
	}
	for _, d := range perLayer {
		if d.Layer == "" {
			t.Errorf("per-layer metric %q names no layer", d.Name)
		}
		if !e2e[d.Moves] {
			t.Errorf("per-layer metric %q: moves %q, not an end-to-end metric", d.Name, d.Moves)
		}
		if d.On == "" {
			t.Errorf("per-layer metric %q names no workload", d.Name)
		}
		for _, w := range strings.Split(d.On, ",") {
			if !wls[w] {
				t.Errorf("per-layer metric %q: unknown workload %q", d.Name, w)
			}
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(buf)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why == "" {
			t.Errorf("workload %d: %q, want %q with a reason", i, w.Name, workloads[i].Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the catalogue %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, catalogue %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s %s %s, catalogue %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
}

func TestPerturbedResultFailsDigestCheck(t *testing.T) {
	res := stats.NewResult("x")
	res.Report = "== report ==\n"
	res.Scalars["completed"] = 8
	res.Scalars["gap_p50_s"] = 0.1690001
	res.Scalars["events_per_wall_s"] = 123
	res.MarkWallClock("events_per_wall_s")
	want := digest(res.Report, simScalars(res))

	res.Scalars["events_per_wall_s"] = 456 // wall-clock values are not output
	if got := digest(res.Report, simScalars(res)); got != want {
		t.Fatalf("a wall-clock scalar changed the digest")
	}
	res.Scalars["gap_p50_s"] = math.Nextafter(0.1690001, 1) // one ulp
	perturbed := digest(res.Report, simScalars(res))
	if perturbed == want {
		t.Fatalf("a one-ulp change left the digest at %s", want)
	}

	w := &workload{Name: "x"}
	c := &checker{w: w, seed: 1, want: want}
	c.add(rep{}, want)
	c.add(rep{}, perturbed)
	var out result
	c.report(&out)
	if out.Attempted != 2 || out.Failed != 1 || out.Correct {
		t.Fatalf("checker: %+v, want 2 attempted, 1 failed, not correct", out)
	}
}

// tiny workloads keep the end-to-end tests fast; they use the same
// scenarios and checks as the real ones.
var tiny = []workload{
	{Name: "tiny-fleet", Scenario: "fleet",
		Params: map[string]string{"devices": "24", "duration": "3s"}, Check: checkFleet},
	{Name: "tiny-fleet-2shard", Scenario: "fleet", SameAs: "tiny-fleet",
		Params: map[string]string{"devices": "24", "duration": "3s", "shards": "2"}, Check: checkFleet},
	{Name: "tiny-bulk", Scenario: "scale",
		Params: map[string]string{"conns": "8", "subflows": "2", "kb": "256",
			"schedulers": "lowest-rtt", "controllers": "fullmesh", "wall": "false"}, Check: checkBulk},
	{Name: "tiny-churn", Scenario: "ctlstress",
		Params: map[string]string{"conns": "8", "subflows": "4", "kb": "4",
			"flap_every": "20ms", "flap_down": "8ms"}, Check: checkChurn},
}

func withTiny(t *testing.T) {
	saved := workloads
	workloads = append(append([]workload(nil), workloads...), tiny...)
	t.Cleanup(func() { workloads = saved })
}

// TestSeamsLeaveOutputUnchanged runs each tiny workload plainly and
// through the benchmark's seams, untraced and traced: the instrumented
// untraced run must reproduce the plain run's report and scalars, and the
// traced run its scalars.
func TestSeamsLeaveOutputUnchanged(t *testing.T) {
	withTiny(t)
	for i := range tiny {
		w := &tiny[i]
		sp, err := scenario.Build(w.Scenario, scenario.NewParams(w.Params))
		if err != nil {
			t.Fatal(err)
		}
		res := scenario.Execute(sp, 3)
		plain := digest(res.Report, simScalars(res))
		plainScalars := digest("", simScalars(res))

		u := runOnce(w, 3, false)
		tr := runOnce(w, 3, true)
		if u.err != nil || tr.err != nil {
			t.Fatalf("%s: %v / %v", w.Name, u.err, tr.err)
		}
		if u.full != plain {
			t.Errorf("%s: instrumented run digest %s, plain %s", w.Name, u.full, plain)
		}
		if tr.scalars != plainScalars {
			t.Errorf("%s: traced scalars %s, untraced %s", w.Name, tr.scalars, plainScalars)
		}
		if u.devices == 0 || u.payload == 0 || u.decisions == 0 || u.events == 0 {
			t.Errorf("%s: untraced run counted devices %d payload %d decisions %d events %d",
				w.Name, u.devices, u.payload, u.decisions, u.events)
		}
		if tr.snap.value("sim_events") == 0 || len(tr.ctlDecisions) == 0 {
			t.Errorf("%s: traced run read no metrics or policies", w.Name)
		}
	}
}

func metricNames(defs []metricDef) map[string]bool {
	out := map[string]bool{}
	for _, d := range defs {
		out[d.Name] = true
	}
	return out
}

func checkOutput(t *testing.T, name string, out result, defs []metricDef) {
	t.Helper()
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s: correct %v attempted %d failed %d", name, out.Correct, out.Attempted, out.Failed)
	}
	want := metricNames(defs)
	for n, m := range out.Metrics {
		if !want[n] {
			t.Errorf("%s: metric %q is not in the catalogue", name, n)
		}
		if m.Unit != unitOf(defs, n) {
			t.Errorf("%s: metric %q unit %q", name, n, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %q = %v", name, n, m.Value)
		}
	}
	for n := range want {
		if _, ok := out.Metrics[n]; !ok {
			t.Errorf("%s: metric %q missing", name, n)
		}
	}
}

func TestEndToEndReportsEveryMetric(t *testing.T) {
	withTiny(t)
	for i := range tiny {
		out := measureEndToEnd(&tiny[i], 5, 0)
		checkOutput(t, tiny[i].Name, out, endToEnd)
		for _, d := range endToEnd {
			if out.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", tiny[i].Name, d.Name, out.Metrics[d.Name].Value)
			}
		}
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer drivers")
	}
	withTiny(t)
	out := measureLayers(&tiny[1], 5, time.Millisecond) // sharded: barriers and both shards
	checkOutput(t, tiny[1].Name, out, perLayer)
	if out.Metrics["sim.barriers"].Value == 0 || out.Metrics["sim.busy_s.shard1"].Value == 0 {
		t.Errorf("sharded traced run: barriers %v, shard 1 busy %v",
			out.Metrics["sim.barriers"].Value, out.Metrics["sim.busy_s.shard1"].Value)
	}
}
