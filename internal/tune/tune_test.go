package tune

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/topology"
)

// sampleTable builds a minimal valid table for machine m.
func sampleTable(m *topology.Machine) *Table {
	return &Table{
		Version:     TableVersion,
		Machine:     m.Name,
		Fingerprint: m.Fingerprint(),
		Grid: Grid{
			Ops: []string{OpBcast}, NPs: []int{m.NCores()},
			Sizes: []int64{64 << 10, 1 << 20}, Iters: 1, KeepFactor: 1.5,
		},
		Cells: []Cell{
			{
				Op: OpBcast, NP: m.NCores(), Size: 64 << 10,
				Choice: Choice{Comp: "KNEM-Coll", Mode: "hierarchical", Seg: 16 << 10}, Seconds: 1e-4,
				Alts: Alts{Knem: &Alt{Choice: Choice{Comp: "KNEM-Coll"}, Seconds: 1e-4, DefaultSeconds: 1.2e-4}},
			},
			{
				Op: OpBcast, NP: m.NCores(), Size: 1 << 20,
				Choice: Choice{Comp: "Tuned-SM", Fanout: 1}, Seconds: 2e-3,
				RunnerUp: "KNEM-Coll", RunnerUpSeconds: 2.5e-3,
			},
		},
	}
}

func TestTableRoundTrip(t *testing.T) {
	m := topology.ByName("Zoot")
	tb := sampleTable(m)
	if err := tb.Validate(); err != nil {
		t.Fatalf("sample table invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse round trip: %v", err)
	}
	if got.Machine != tb.Machine || got.Fingerprint != tb.Fingerprint || len(got.Cells) != len(tb.Cells) {
		t.Fatalf("round trip mutated table: %+v", got)
	}
	if got.Cells[1].Margin() == 0 {
		t.Fatalf("runner-up margin lost in round trip")
	}
	// Canonical encoding: writing the parsed table reproduces the bytes.
	var buf2 bytes.Buffer
	if err := got.Write(&buf2); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("canonical encoding is not stable")
	}
}

func TestParseRejects(t *testing.T) {
	m := topology.ByName("Zoot")
	encode := func(mutate func(*Table)) []byte {
		tb := sampleTable(m)
		mutate(tb)
		var buf bytes.Buffer
		if err := tb.Write(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bad version", encode(func(tb *Table) { tb.Version = 99 }), "version"},
		{"no machine", encode(func(tb *Table) { tb.Machine = "" }), "machine"},
		{"no fingerprint", encode(func(tb *Table) { tb.Fingerprint = "" }), "fingerprint"},
		{"no cells", encode(func(tb *Table) { tb.Cells = nil }), "no cells"},
		{"unknown op", encode(func(tb *Table) { tb.Cells[0].Op = "reduce" }), "unknown op"},
		{"unknown comp", encode(func(tb *Table) { tb.Cells[0].Choice.Comp = "OpenMPI" }), "unknown component"},
		{"unknown mode", encode(func(tb *Table) { tb.Cells[0].Choice.Mode = "spiral" }), "unknown mode"},
		{"bad fanout", encode(func(tb *Table) { tb.Cells[1].Choice.Fanout = 7 }), "out-of-range"},
		{"negative time", encode(func(tb *Table) { tb.Cells[0].Seconds = -1 }), "bad time"},
		{"bad alt time", encode(func(tb *Table) { tb.Cells[0].Alts.Knem.DefaultSeconds = 0 }), "bad time"},
		{"bad np", encode(func(tb *Table) { tb.Cells[0].NP = 0 }), "bad np"},
		{"bad size", encode(func(tb *Table) { tb.Cells[0].Size = 0 }), "bad size"},
		{"duplicate cell", encode(func(tb *Table) { tb.Cells[1] = tb.Cells[0] }), "duplicate"},
		{"unknown field", []byte(`{"version":1,"surprise":true}`), "unknown field"},
		{"trailing data", nil, "trailing"},
		{"not json", []byte("machine: Zoot"), "bad decision table"},
	}
	valid := encode(func(*Table) {})
	for i := range cases {
		if cases[i].name == "trailing data" {
			cases[i].data = append(append([]byte{}, valid...), []byte("{}")...)
		}
	}
	for _, tc := range cases {
		_, err := Parse(tc.data)
		if err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateRejectsNonFiniteTimes covers what JSON cannot encode but a
// direct Validate caller could pass: NaN and infinite times.
func TestValidateRejectsNonFiniteTimes(t *testing.T) {
	m := topology.ByName("Zoot")
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0} {
		tb := sampleTable(m)
		tb.Cells[0].Seconds = bad
		if err := tb.Validate(); err == nil {
			t.Errorf("Seconds=%v accepted", bad)
		}
	}
}

func TestUnsortedCellsRejected(t *testing.T) {
	m := topology.ByName("Zoot")
	tb := sampleTable(m)
	tb.Cells[0], tb.Cells[1] = tb.Cells[1], tb.Cells[0]
	if err := tb.Validate(); err == nil || !strings.Contains(err.Error(), "sorted") {
		t.Fatalf("unsorted cells: got %v, want sort error", err)
	}
	tb.Sort()
	if err := tb.Validate(); err != nil {
		t.Fatalf("Sort did not restore canonical order: %v", err)
	}
}

func TestCheckMachine(t *testing.T) {
	zoot, ig := topology.ByName("Zoot"), topology.ByName("IG")
	tb := sampleTable(zoot)
	if err := tb.CheckMachine(zoot); err != nil {
		t.Fatalf("matching machine rejected: %v", err)
	}
	if err := tb.CheckMachine(ig); err == nil {
		t.Fatalf("table for Zoot accepted on IG")
	}
	// Same name, different structure: the fingerprint must catch it.
	tb2 := sampleTable(zoot)
	tb2.Fingerprint = "0123456789abcdef"
	err := tb2.CheckMachine(zoot)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("stale fingerprint: got %v, want fingerprint mismatch", err)
	}
}

func TestChoiceString(t *testing.T) {
	ch := Choice{Comp: "KNEM-Coll", Mode: "hierarchical", Seg: 16 << 10, Threshold: 4 << 10, Fanout: 2}
	got := ch.String()
	for _, want := range []string{"KNEM-Coll", "hierarchical", "seg=16K", "thr=4K", "fanout=2"} {
		if !strings.Contains(got, want) {
			t.Errorf("Choice.String() = %q, missing %q", got, want)
		}
	}
	if got := (Choice{Comp: "Tuned-SM"}).String(); got != "Tuned-SM" {
		t.Errorf("default choice renders as %q", got)
	}
}
