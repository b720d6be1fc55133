package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
)

// TestFlagValidation pins the closed-set validation for -op and -fig: every
// valid spelling is accepted, anything else is rejected with a one-line
// error that lists the valid values.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		flag  string
		val   string
		valid []string
		ok    bool
	}{
		{"-op", "bcast", validOps, true},
		{"-op", "gather", validOps, true},
		{"-op", "scatter", validOps, true},
		{"-op", "allgather", validOps, true},
		{"-op", "alltoall", validOps, true},
		{"-op", "alltoallv", validOps, true},
		{"-op", "barrier", validOps, true},
		{"-op", "pingpong", validOps, true},
		{"-op", "broadcast", validOps, false},
		{"-op", "Bcast", validOps, false},
		{"-op", "reduce", validOps, false},
		{"-op", "", validOps, false},
		{"-fig", "4", validFigs, true},
		{"-fig", "5", validFigs, true},
		{"-fig", "6", validFigs, true},
		{"-fig", "7", validFigs, true},
		{"-fig", "8", validFigs, true},
		{"-fig", "scatter", validFigs, true},
		{"-fig", "all", validFigs, true},
		{"-fig", "9", validFigs, false},
		{"-fig", "fig5", validFigs, false},
		{"-fig", "Scatter", validFigs, false},
	}
	for _, tc := range cases {
		err := checkChoice(tc.flag, tc.val, tc.valid)
		if tc.ok {
			if err != nil {
				t.Errorf("checkChoice(%s, %q) = %v, want accepted", tc.flag, tc.val, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("checkChoice(%s, %q) accepted, want rejection", tc.flag, tc.val)
			continue
		}
		msg := err.Error()
		if strings.ContainsRune(msg, '\n') {
			t.Errorf("checkChoice(%s, %q) error is not one line: %q", tc.flag, tc.val, msg)
		}
		for _, v := range tc.valid {
			if !strings.Contains(msg, v) {
				t.Errorf("checkChoice(%s, %q) error %q does not list valid value %q", tc.flag, tc.val, msg, v)
			}
		}
	}
}

// TestFigureMapMatchesValidFigs keeps the runFigures dispatch map and the
// validated -fig list from drifting apart.
func TestFigureMapMatchesValidFigs(t *testing.T) {
	for _, f := range validFigs {
		if f == "all" {
			continue
		}
		if err := checkChoice("-fig", f, validFigs); err != nil {
			t.Fatalf("valid fig %q rejected: %v", f, err)
		}
	}
	if err := checkChoice("-op", "bcast", validOps); err != nil {
		t.Fatalf("bcast rejected: %v", err)
	}
}

// TestCheckLinks pins -fault-link validation: names must be links of the
// swept machine and scales must lie in (0, 1], and the first bad entry (in
// sorted name order) is reported in one exact line.
func TestCheckLinks(t *testing.T) {
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
		err := checkLinks(plan, topology.ByName(tc.machine))
		if tc.expectExactErr == "" {
			if err != nil {
				t.Fatalf("checkLinks = %v, want accepted", err)
			}
			return
		}
		if err == nil || err.Error() != tc.expectExactErr {
			t.Fatalf("checkLinks error = %v, want %q", err, tc.expectExactErr)
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
			expectExactErr: `unknown -fault-link link "bus0" on machine Zoot`,
		},
		"other-machine-link": {
			machine:        "Zoot",
			links:          map[string]float64{"qpi": 0.5},
			expectExactErr: `unknown -fault-link link "qpi" on machine Zoot`,
		},
		"first-unknown-sorted": {
			machine:        "Dancer",
			links:          map[string]float64{"mem0": 0.5, "zz": 0.5, "bus9": 0.5},
			expectExactErr: `unknown -fault-link link "bus9" on machine Dancer`,
		},
		"scale-one": {machine: "Zoot", links: map[string]float64{"mem0": 1}},
		"scale-zero": {
			machine:        "Zoot",
			links:          map[string]float64{"mem0": 0},
			expectExactErr: `-fault-link scale for "mem0" must be in (0, 1], got 0`,
		},
		"scale-negative": {
			machine:        "Zoot",
			links:          map[string]float64{"mem0": -1},
			expectExactErr: `-fault-link scale for "mem0" must be in (0, 1], got -1`,
		},
		"scale-above-one": {
			machine:        "Zoot",
			links:          map[string]float64{"mem0": 1.5},
			expectExactErr: `-fault-link scale for "mem0" must be in (0, 1], got 1.5`,
		},
		"scale-nan": {
			machine:        "Zoot",
			links:          map[string]float64{"mem0": math.NaN()},
			expectExactErr: `-fault-link scale for "mem0" must be in (0, 1], got NaN`,
		},
		"first-bad-sorted": {
			machine:        "Dancer",
			links:          map[string]float64{"qpi": 2, "mem0": 0.5, "cache0": 0},
			expectExactErr: `-fault-link scale for "cache0" must be in (0, 1], got 0`,
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) { run(t, tc) })
	}
}
