package experiments

import (
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// smallScale keeps the stress matrix test-sized.
func smallScale() map[string]string {
	return map[string]string{"conns": "4", "kb": "128", "schedulers": "lowest-rtt"}
}

func TestScaleKernelCellCompletes(t *testing.T) {
	r := run(t, "scale", 1, smallScale())
	if got := r.Scalars["lowest-rtt/kernel_completed"]; got != 4 {
		t.Fatalf("completed %v of 4 connections\n%s", got, r.Report)
	}
	if r.Scalars["lowest-rtt/kernel_goodput_mbps"] <= 0 {
		t.Fatalf("no goodput recorded\n%s", r.Report)
	}
}

// TestScaleControllerCell drives the sweep through the smapp facade: the
// userspace full-mesh policy must also finish every transfer.
func TestScaleControllerCell(t *testing.T) {
	params := smallScale()
	params["controllers"] = scenario.KernelPolicy + ",fullmesh"
	r := run(t, "scale", 1, params)
	for _, key := range []string{"lowest-rtt/kernel_completed", "lowest-rtt/fullmesh_completed"} {
		if got := r.Scalars[key]; got != 4 {
			t.Fatalf("%s = %v, want 4\n%s", key, got, r.Report)
		}
	}
}

// TestScaleDeterministicPerSeed checks the pooled data path stays
// reproducible under concurrency stress: every simulated scalar of two
// same-seed runs must agree exactly (wall-clock scalars excluded — they
// measure the host, not the model).
func TestScaleDeterministicPerSeed(t *testing.T) {
	a := run(t, "scale", 3, smallScale())
	b := run(t, "scale", 3, smallScale())
	for k, v := range a.Scalars {
		if strings.HasSuffix(k, "_wall_s") {
			continue
		}
		if b.Scalars[k] != v {
			t.Fatalf("scalar %s diverged between same-seed runs: %v vs %v", k, v, b.Scalars[k])
		}
	}
}

// TestScaleMultiSeed runs the scale experiment across seeds on the
// concurrent multi-seed runner — under `make race` (CI) this is the race
// gate for the pooled segment/chunk/event lifecycle, whose sync.Pools are
// the only state shared between worker goroutines.
func TestScaleMultiSeed(t *testing.T) {
	m := runner.Run("scale", runner.Config{Seeds: 4, BaseSeed: 1, Parallel: 4},
		scenario.Job("scale", scenario.NewParams(smallScale())))
	if failed := m.Failed(); len(failed) != 0 {
		t.Fatalf("seed %d failed: %v", failed[0].Seed, failed[0].Err)
	}
	sum, ok := m.ScalarSummary()["lowest-rtt/kernel_completed"]
	if !ok || sum.Mean() != 4 {
		t.Fatalf("expected every seed to complete 4 connections (summary: %+v)", m.ScalarSummary())
	}
}
