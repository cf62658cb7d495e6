package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden files under testdata/ pin the byte-for-byte report output of
// the cheap deterministic experiments at seed 1, as produced by the
// sharded engine (sim.World with per-entity RNG streams and the
// (when, ent, seq) event order — they were regenerated once when that
// engine landed). Nothing else may change a single simulated byte, and
// TestGoldenShardInvariance additionally demands the exact same bytes at
// shard counts {1, 2, 8}. Regenerate (only when an intentional model
// change occurs) with:
//
//	go test ./internal/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite the determinism golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	p := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: report diverged from the pre-pool golden output\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestFig2aGoldenSeed1(t *testing.T) {
	checkGolden(t, "fig2a_seed1", run(t, "fig2a", 1, nil).Report)
}

func TestLongLivedGoldenSeed1(t *testing.T) {
	checkGolden(t, "longlived_seed1", run(t, "longlived", 1, nil).Report)
}

// The fig2b/fig2c goldens pin the post-scenario-refactor output on
// test-sized configurations (the defaults would take minutes): any later
// change to the scenario engine's phase ordering, the stream/bulk
// workloads, or the ECMP topology that shifts a single simulated byte
// shows up here.

func TestFig2bGoldenSeed1(t *testing.T) {
	checkGolden(t, "fig2b_seed1", run(t, "fig2b", 1, map[string]string{"blocks": "40"}).Report)
}

func TestFig2cGoldenSeed1(t *testing.T) {
	checkGolden(t, "fig2c_seed1", run(t, "fig2c", 1, map[string]string{"trials": "3", "mb": "25"}).Report)
}

// TestGoldenRunsAreRepeatable guards the golden tests themselves: two
// fresh runs at the same seed must agree before comparing to disk, so a
// golden failure always means divergence, never flakiness.
func TestGoldenRunsAreRepeatable(t *testing.T) {
	a := run(t, "fig2a", 7, nil).Report
	b := run(t, "fig2a", 7, nil).Report
	if a != b {
		t.Fatal("two fig2a runs at the same seed disagree")
	}
}
