package main

import (
	"strings"
	"testing"
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
