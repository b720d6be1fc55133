package mpi

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
)

// TestRunRejectsBadLinkPlan pins the fault plan's link check where the
// world is built, so a library caller's misconfiguration fails as loudly
// as imb -fault-link: names must be links of the machine and scales must
// lie in (0, 1], and the first bad entry (in sorted name order) is
// reported in one exact line.
func TestRunRejectsBadLinkPlan(t *testing.T) {
	type testcase struct {
		machine        string
		links          map[string]float64
		expectExactErr string
	}

	run := func(t *testing.T, tc testcase) {
		var plan *fault.Plan
		if tc.links != nil {
			plan = &fault.Plan{LinkSlowdown: tc.links}
		}
		_, _, err := Run(Options{Machine: topology.ByName(tc.machine), NP: 2, Fault: plan}, func(*Rank) {})
		if tc.expectExactErr == "" {
			if err != nil {
				t.Fatalf("Run = %v, want accepted", err)
			}
			return
		}
		if err == nil || err.Error() != tc.expectExactErr {
			t.Fatalf("Run error = %v, want %q", err, tc.expectExactErr)
		}
	}

	cases := map[string]testcase{
		"no-plan":         {machine: "Zoot"},
		"known-memory":    {machine: "Zoot", links: map[string]float64{"mem0": 0.5}},
		"known-repeated":  {machine: "Zoot", links: map[string]float64{"fsb": 0.5, "cache3": 0.25}},
		"known-interconn": {machine: "Dancer", links: map[string]float64{"qpi": 0.5, "mem1": 0.5}},
		"unknown": {
			machine:        "Zoot",
			links:          map[string]float64{"bus0": 0.5},
			expectExactErr: `mpi: fault plan: unknown link "bus0" on machine Zoot`,
		},
		"other-machine-link": {
			machine:        "Zoot",
			links:          map[string]float64{"qpi": 0.5},
			expectExactErr: `mpi: fault plan: unknown link "qpi" on machine Zoot`,
		},
		"first-unknown-sorted": {
			machine:        "Dancer",
			links:          map[string]float64{"mem0": 0.5, "zz": 0.5, "bus9": 0.5},
			expectExactErr: `mpi: fault plan: unknown link "bus9" on machine Dancer`,
		},
		"scale-one": {machine: "Zoot", links: map[string]float64{"mem0": 1}},
		"scale-zero": {
			machine:        "Zoot",
			links:          map[string]float64{"mem0": 0},
			expectExactErr: `mpi: fault plan: scale for link "mem0" must be in (0, 1], got 0`,
		},
		"scale-negative": {
			machine:        "Zoot",
			links:          map[string]float64{"mem0": -1},
			expectExactErr: `mpi: fault plan: scale for link "mem0" must be in (0, 1], got -1`,
		},
		"scale-above-one": {
			machine:        "Zoot",
			links:          map[string]float64{"mem0": 1.5},
			expectExactErr: `mpi: fault plan: scale for link "mem0" must be in (0, 1], got 1.5`,
		},
		"scale-nan": {
			machine:        "Zoot",
			links:          map[string]float64{"mem0": math.NaN()},
			expectExactErr: `mpi: fault plan: scale for link "mem0" must be in (0, 1], got NaN`,
		},
		"first-bad-sorted": {
			machine:        "Dancer",
			links:          map[string]float64{"qpi": 2, "mem0": 0.5, "cache0": 0},
			expectExactErr: `mpi: fault plan: scale for link "cache0" must be in (0, 1], got 0`,
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) { run(t, tc) })
	}
}
