package experiments

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestParamDocDefaultsMatchFactories ties every registered scenario's
// documented defaults to its factory: setting a documented key to its
// documented Default must build the same spec as leaving it unset.
func TestParamDocDefaultsMatchFactories(t *testing.T) {
	for _, name := range scenario.Names() {
		base, err := scenario.Build(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range scenario.ParamDocs(name) {
			if d.Default == "" {
				continue
			}
			sp, err := scenario.Build(name, scenario.NewParams(map[string]string{d.Key: d.Default}))
			if err != nil {
				t.Fatalf("%s: %s=%s: %v", name, d.Key, d.Default, err)
			}
			if sp.Title != base.Title || sp.Desc != base.Desc || len(sp.Runs) != len(base.Runs) {
				t.Errorf("%s: %s=%s builds %q / %q / %d runs, the default builds %q / %q / %d runs",
					name, d.Key, d.Default, sp.Title, sp.Desc, len(sp.Runs), base.Title, base.Desc, len(base.Runs))
			}
		}
	}
}

// TestSmokeKeepsExplicitParams pins the smoke contract: smoke shrinks
// only the defaults, so an explicit size always reaches the spec.
func TestSmokeKeepsExplicitParams(t *testing.T) {
	for _, tc := range []struct {
		name, key, val, want string
	}{
		{"fleet", "devices", "48", "48 devices"},
		{"fleetsweep", "devices", "9", "9 devices"},
		{"scale", "conns", "8", "8 conns"},
		{"ctlstress", "conns", "8", "8 conns"},
		{"fig2b", "blocks", "20", "20 blocks per curve"},
		{"schedsweep", "blocks", "20", "20 blocks;"},
		{"ctlsweep", "blocks", "20", "20 blocks;"},
		{"fig2c", "trials", "3", "3 trials"},
		{"fig3", "requests", "50", "50 consecutive"},
	} {
		sp, err := scenario.Build(tc.name, scenario.NewParams(map[string]string{"smoke": "true", tc.key: tc.val}))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(sp.Desc, tc.want) {
			t.Errorf("%s -smoke -set %s=%s: desc %q lacks %q", tc.name, tc.key, tc.val, sp.Desc, tc.want)
		}
	}
	sp, err := scenario.Build("scale", scenario.NewParams(map[string]string{"smoke": "true", "sched": "round-robin"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Runs) != 1 || sp.Runs[0].Sched != "round-robin" {
		t.Errorf("scale -smoke -sched round-robin runs %d cells, first on %q", len(sp.Runs), sp.Runs[0].Sched)
	}
}
