package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// workload is one named input of the benchmark: a registered scenario
// with fixed parameters, run single-seed at the workload seed.
type workload struct {
	Name     string
	Scenario string
	Params   map[string]string
	// SameAs names the workload whose output this one must reproduce
	// (shard invariance); its expected digests are used.
	SameAs string
	// Check validates workload-specific invariants of the result.
	Check func(sc map[string]float64) error
}

// workloads are the benchmark's inputs; see README.md for why each was
// chosen and which layers it stresses.
var workloads = []workload{
	{
		Name:     "fleet-4k",
		Scenario: "fleet",
		Params:   map[string]string{"devices": "4000"},
		Check:    checkFleet,
	},
	{
		Name:     "fleet-4k-2shard",
		Scenario: "fleet",
		Params:   map[string]string{"devices": "4000", "shards": "2"},
		SameAs:   "fleet-4k",
		Check:    checkFleet,
	},
	{
		Name:     "bulk",
		Scenario: "scale",
		Params: map[string]string{"conns": "8", "subflows": "2", "kb": "16384",
			"schedulers": "lowest-rtt", "controllers": "fullmesh", "wall": "false"},
		Check: checkBulk,
	},
	{
		Name:     "churn",
		Scenario: "ctlstress",
		Params: map[string]string{"conns": "128", "subflows": "4", "kb": "4",
			"flap_every": "20ms", "flap_down": "8ms"},
		Check: checkChurn,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// expected holds the output digests recorded for seed 1 and for the
// held-out seed 7, per workload (fleet-4k-2shard uses fleet-4k's). Any
// change to the simulated output changes them: a change that claims a
// speed-up must leave them alone.
var expected = map[string]map[int64]string{
	"fleet-4k": {1: "56481f4468bd9fd6", 7: "fb8abef7d945a496"},
	"bulk":     {1: "8b398da6c7e3d038", 7: "9016e05861700254"},
	"churn":    {1: "868bd9a93738b4a1", 7: "38a2f8bfa5ff12e2"},
}

// simScalars returns the simulated scalars of a result: every scalar not
// tagged wall-clock.
func simScalars(res *stats.Result) map[string]float64 {
	wall := map[string]bool{}
	for _, k := range res.WallKeys() {
		wall[k] = true
	}
	out := make(map[string]float64, len(res.Scalars))
	for k, v := range res.Scalars {
		if !wall[k] {
			out[k] = v
		}
	}
	return out
}

// digest hashes what a run simulated: the report and every simulated
// scalar with all its digits, in key order.
func digest(report string, sc map[string]float64) string {
	h := sha256.New()
	h.Write([]byte(report))
	keys := make([]string, 0, len(sc))
	for k := range sc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "\n%s=%s", k, strconv.FormatFloat(sc[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func scalar(sc map[string]float64, key string) (float64, error) {
	v, ok := sc[key]
	if !ok {
		return 0, fmt.Errorf("scalar %q missing", key)
	}
	if math.IsNaN(v) {
		return 0, fmt.Errorf("scalar %q is NaN", key)
	}
	return v, nil
}

func checkFleet(sc map[string]float64) error {
	done, err := scalar(sc, "completed")
	if err != nil {
		return err
	}
	if done < 1 || done > 4000 {
		return fmt.Errorf("fleet completed %v of 4000 uploads", done)
	}
	return nil
}

func checkBulk(sc map[string]float64) error {
	done, err := scalar(sc, "lowest-rtt/fullmesh_completed")
	if err != nil {
		return err
	}
	if done != 8 {
		return fmt.Errorf("bulk completed %v/8 transfers", done)
	}
	return nil
}

func checkChurn(sc map[string]float64) error {
	for _, cell := range []string{"immediate", "coalesced"} {
		n, err := scalar(sc, cell+"_decision_n")
		if err != nil {
			return err
		}
		if n < 1 {
			return fmt.Errorf("churn %s cell made no decisions", cell)
		}
		drops, err := scalar(sc, cell+"_events_dropped")
		if err != nil {
			return err
		}
		if drops != 0 {
			return fmt.Errorf("churn %s cell dropped %v control-plane events", cell, drops)
		}
	}
	return nil
}
