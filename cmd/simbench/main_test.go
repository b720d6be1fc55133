package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// syntheticReport builds a report holding every metric of cs, with median
// 0 for "max"-gated metrics and 1000 for the rest, so every gate passes
// when the same report also serves as the baseline.
func syntheticReport(cs []cell) *Report {
	r := &Report{Schema: schema}
	for _, c := range cs {
		for _, m := range c.metrics {
			m.Median = 1000
			if m.Gate != nil && m.Gate.Kind == "max" {
				m.Median = 0
			}
			m.Samples = []float64{m.Median, m.Median, m.Median}
			r.Metrics = append(r.Metrics, m)
		}
	}
	return r
}

// drop removes the metric called name from r.
func drop(r *Report, name string) {
	r.Metrics = slices.DeleteFunc(r.Metrics, func(m Metric) bool { return m.Name == name })
}

// TestGateTable pins which metrics simbench gates and how: the exact-0
// allocation pins and the 25%-over-baseline bounds.
func TestGateTable(t *testing.T) {
	want := map[string]Gate{
		"memsim/copy_churn_64KiB/allocs_per_op": {"max", 0},
		"sim/schedule_fire/allocs_per_op":       {"max", 0},
		"core/bcast_cell_64KiB/allocs_per_op":   {"max", 0},
		"core/bcast_cell_128/allocs_per_op":     {"max", 0},
		"core/bcast_cell_512/allocs_per_op":     {"max", 0},
		"sim/park_wake/ns_per_op":               {"rel", 0.25},
		"core/bcast_cell_512/ns_per_op":         {"rel", 0.25},
		"cluster/bcast_256/allocs_per_op":       {"rel", 0.25},
		"cluster/bcast_1024/allocs_per_op":      {"rel", 0.25},
		"cluster/bcast_10k/allocs_per_op":       {"rel", 0.25},
	}
	got := map[string]Gate{}
	for _, c := range cells() {
		for _, m := range c.metrics {
			if !strings.HasPrefix(m.Name, c.name+"/") {
				t.Errorf("metric %s is not named under its cell %s", m.Name, c.name)
			}
			if m.Gate != nil {
				got[m.Name] = *m.Gate
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d gated metrics, want %d: %v", len(got), len(want), got)
	}
	for name, g := range want {
		if got[name] != g {
			t.Errorf("%s: gate %+v, want %+v", name, got[name], g)
		}
	}
}

// TestCheck pins the generic gate loop: each case edits a passing current
// report (cur) or baseline (base) and expects check's exact error.
func TestCheck(t *testing.T) {
	type testcase struct {
		edit           func(cur, base *Report)
		expectExactErr string
	}

	// set gives every sample of the metric called name the value v.
	set := func(r *Report, name string, v float64) {
		m := r.find(name)
		m.Samples, m.Median = []float64{v, v, v}, v
	}
	run := func(t *testing.T, tc testcase) {
		cs := cells()
		cur, base := syntheticReport(cs), syntheticReport(cs)
		if tc.edit != nil {
			tc.edit(cur, base)
		}
		err := check(cs, cur, base)
		if tc.expectExactErr == "" {
			if err != nil {
				t.Fatalf("check = %v, want pass", err)
			}
			return
		}
		if err == nil || err.Error() != tc.expectExactErr {
			t.Fatalf("check error = %v, want %q", err, tc.expectExactErr)
		}
	}

	cases := map[string]testcase{
		"all-pass": {},
		"alloc-on-zero-pin": {
			edit:           func(cur, _ *Report) { set(cur, "core/bcast_cell_512/allocs_per_op", 1) },
			expectExactErr: "core/bcast_cell_512/allocs_per_op: sample 1 over max 0",
		},
		"alloc-in-cold-first-sample": {
			edit: func(cur, _ *Report) {
				m := cur.find("core/bcast_cell_64KiB/allocs_per_op")
				m.Samples, m.Median = []float64{1, 0, 0}, 0
			},
			expectExactErr: "core/bcast_cell_64KiB/allocs_per_op: sample 1 over max 0",
		},
		"ns-plus-24": {
			edit: func(cur, _ *Report) { set(cur, "sim/park_wake/ns_per_op", 1240) },
		},
		"ns-plus-26": {
			edit:           func(cur, _ *Report) { set(cur, "sim/park_wake/ns_per_op", 1260) },
			expectExactErr: "sim/park_wake/ns_per_op: median 1260 is +26.0% over baseline 1000 (allowed +25%)",
		},
		"faster-than-baseline": {
			edit: func(cur, _ *Report) { set(cur, "core/bcast_cell_512/ns_per_op", 10) },
		},
		"cluster-allocs-plus-26": {
			edit:           func(cur, _ *Report) { set(cur, "cluster/bcast_10k/allocs_per_op", 1260) },
			expectExactErr: "cluster/bcast_10k/allocs_per_op: median 1260 is +26.0% over baseline 1000 (allowed +25%)",
		},
		"ungated-metric-regresses": {
			edit: func(cur, _ *Report) { set(cur, "sim/park_wake/bytes_per_op", 1e9) },
		},
		"gated-missing-from-run": {
			edit:           func(cur, _ *Report) { drop(cur, "sim/schedule_fire/allocs_per_op") },
			expectExactErr: "sim/schedule_fire/allocs_per_op: gated metric missing from this run",
		},
		"rel-missing-from-baseline": {
			edit:           func(_, base *Report) { drop(base, "cluster/bcast_256/allocs_per_op") },
			expectExactErr: "cluster/bcast_256/allocs_per_op: no baseline median to compare against",
		},
		"max-ignores-baseline": {
			edit: func(_, base *Report) { drop(base, "sim/schedule_fire/allocs_per_op") },
		},
		"old-schema-baseline": {
			edit:           func(_, base *Report) { base.Schema = "bench_sim/v8" },
			expectExactErr: `baseline schema "bench_sim/v8", want "bench_sim/v9"`,
		},
		"every-failure-reported": {
			edit: func(cur, _ *Report) {
				set(cur, "memsim/copy_churn_64KiB/allocs_per_op", 2)
				drop(cur, "core/bcast_cell_512/ns_per_op")
			},
			expectExactErr: "memsim/copy_churn_64KiB/allocs_per_op: sample 2 over max 0\n" +
				"core/bcast_cell_512/ns_per_op: gated metric missing from this run",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) { run(t, tc) })
	}
}

// TestDiff: a metric the old report lacks prints "new"; one it has prints
// the old median and the relative change.
func TestDiff(t *testing.T) {
	o := &Report{Schema: "bench_sim/v8"}
	n := &Report{Schema: schema, Metrics: []Metric{
		{Name: "sim/park_wake/ns_per_op", Unit: "ns", Median: 500},
		{Name: "sim/park_wake/allocs_per_op", Unit: "count", Median: 0},
	}}
	var buf bytes.Buffer
	diff(&buf, o, n)
	o.Metrics = []Metric{{Name: "sim/park_wake/ns_per_op", Median: 400}}
	diff(&buf, o, n)
	want := `# BENCH_sim diff: bench_sim/v8 -> bench_sim/v9
sim/park_wake/ns_per_op                           ->          500 ns     new
sim/park_wake/allocs_per_op                       ->            0 count  new
# BENCH_sim diff: bench_sim/v8 -> bench_sim/v9
sim/park_wake/ns_per_op                       400 ->          500 ns     +25.0%
sim/park_wake/allocs_per_op                       ->            0 count  new
`
	if got := buf.String(); got != want {
		t.Errorf("diff output:\n%s\nwant:\n%s", got, want)
	}
}
