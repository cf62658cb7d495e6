package runner_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	_ "repro/internal/experiments" // registers the scenarios run by name
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// syntheticJob builds a result whose values depend only on the seed,
// through the same deterministic RNG path real experiments use.
func syntheticJob(seed int64) *stats.Result {
	s := sim.NewWorld(seed, 1).HostClock(0, "job")
	res := &stats.Result{
		Name:    "synthetic",
		Samples: map[string]*stats.Sample{},
		Scalars: map[string]float64{},
	}
	res.Scalars["seed"] = float64(seed)
	res.Scalars["draw"] = s.Rand().Float64()
	obs := &stats.Sample{}
	for i := 0; i < 10; i++ {
		obs.Add(s.Rand().NormFloat64())
	}
	res.Samples["obs"] = obs
	return res
}

// scalarsBySeed flattens a run into seed → scalars for comparison.
func scalarsBySeed(m *runner.Multi) map[int64]map[string]float64 {
	out := make(map[int64]map[string]float64)
	for _, sr := range m.PerSeed {
		if sr.Err != nil {
			continue
		}
		out[sr.Seed] = sr.Result.Scalars
	}
	return out
}

// TestDeterminismAcrossParallelism is the runner's core guarantee: the
// same seed set run with 1 worker and with 8 workers yields bit-identical
// per-seed scalars — the pool changes wall-clock interleaving only, never
// the virtual timeline.
func TestDeterminismAcrossParallelism(t *testing.T) {
	for name, job := range map[string]runner.Job{
		"synthetic": syntheticJob,
		// Trimmed to 8 blocks and one loss level to keep the test quick.
		"fig2b": scenario.Job("fig2b", scenario.NewParams(map[string]string{"blocks": "8", "loss_levels": "0.30"})),
	} {
		t.Run(name, func(t *testing.T) {
			serial := runner.Run(name, runner.Config{Seeds: 6, BaseSeed: 10, Parallel: 1}, job)
			parallel := runner.Run(name, runner.Config{Seeds: 6, BaseSeed: 10, Parallel: 8}, job)
			if !reflect.DeepEqual(scalarsBySeed(serial), scalarsBySeed(parallel)) {
				t.Fatalf("per-seed scalars differ between parallel 1 and 8:\n%v\nvs\n%v",
					scalarsBySeed(serial), scalarsBySeed(parallel))
			}
			// Raw per-seed observations must match bit for bit too.
			for i := range serial.PerSeed {
				a := serial.PerSeed[i].Result.Samples
				b := parallel.PerSeed[i].Result.Samples
				for k := range a {
					if !reflect.DeepEqual(a[k].Values(), b[k].Values()) {
						t.Fatalf("seed %d sample %q differs", serial.PerSeed[i].Seed, k)
					}
				}
			}
		})
	}
}

// TestSeedOrdering checks results land ordered by seed regardless of the
// completion order the pool produces.
func TestSeedOrdering(t *testing.T) {
	m := runner.Run("order", runner.Config{Seeds: 32, BaseSeed: 100, Parallel: 8}, syntheticJob)
	if len(m.PerSeed) != 32 {
		t.Fatalf("got %d results", len(m.PerSeed))
	}
	for i, sr := range m.PerSeed {
		if sr.Seed != 100+int64(i) {
			t.Fatalf("slot %d holds seed %d", i, sr.Seed)
		}
		if got := sr.Result.Scalars["seed"]; got != float64(sr.Seed) {
			t.Fatalf("slot %d holds result for seed %g", i, got)
		}
	}
}

// TestPanicIsolation: one exploding seed becomes an error; the rest of
// the sweep completes.
func TestPanicIsolation(t *testing.T) {
	m := runner.Run("boom", runner.Config{Seeds: 8, BaseSeed: 1, Parallel: 4}, func(seed int64) *stats.Result {
		if seed == 5 {
			panic(fmt.Sprintf("seed %d exploded", seed))
		}
		return syntheticJob(seed)
	})
	failed := m.Failed()
	if len(failed) != 1 || failed[0].Seed != 5 {
		t.Fatalf("failed = %+v, want exactly seed 5", failed)
	}
	ok := 0
	for _, sr := range m.PerSeed {
		if sr.Err == nil && sr.Result != nil {
			ok++
		}
	}
	if ok != 7 {
		t.Fatalf("%d seeds succeeded, want 7", ok)
	}
	// The aggregate must simply skip the failed seed.
	if n := m.ScalarSummary()["seed"].N(); n != 7 {
		t.Fatalf("aggregate over %d seeds, want 7", n)
	}
}

// TestAggregation checks the scalar summary and sample pooling math.
func TestAggregation(t *testing.T) {
	m := runner.Run("agg", runner.Config{Seeds: 4, BaseSeed: 1, Parallel: 2}, func(seed int64) *stats.Result {
		res := &stats.Result{
			Name:    "agg",
			Samples: map[string]*stats.Sample{"d": {}},
			Scalars: map[string]float64{"x": float64(seed)},
		}
		res.Samples["d"].Add(float64(seed), float64(seed)+0.5)
		return res
	})
	x := m.ScalarSummary()["x"]
	if x.N() != 4 || math.Abs(x.Mean()-2.5) > 1e-12 || x.Min() != 1 || x.Max() != 4 {
		t.Fatalf("scalar summary wrong: %s", x.Summary(""))
	}
	d := m.MergedSamples()["d"]
	if d.N() != 8 {
		t.Fatalf("pooled %d observations, want 8", d.N())
	}
	rep := m.Report()
	for _, want := range []string{"agg × 4 seeds", "scalars across seeds", "pooled distributions"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestDefaults: zero config means one seed, and an explicit base of 0 is
// honoured — a multi-seed run must include the exact seed a single run
// used, never a silently rebased one.
func TestDefaults(t *testing.T) {
	m := runner.Run("def", runner.Config{}, syntheticJob)
	if len(m.PerSeed) != 1 || m.PerSeed[0].Seed != 0 {
		t.Fatalf("defaults ran %+v", m.PerSeed)
	}
	m = runner.Run("zero-base", runner.Config{Seeds: 3, BaseSeed: 0}, syntheticJob)
	for i, sr := range m.PerSeed {
		if sr.Seed != int64(i) {
			t.Fatalf("slot %d ran seed %d, want %d", i, sr.Seed, i)
		}
	}
}
