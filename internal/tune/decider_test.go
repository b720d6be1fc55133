package tune

import (
	"testing"

	"repro/internal/topology"
)

// grid builds a table with bcast cells at the given (np, size) points, each
// tagged with a distinguishable segment size so tests can tell which cell a
// lookup resolved to.
func gridTable(m *topology.Machine, points [][2]int64) *Table {
	t := &Table{Version: TableVersion, Machine: m.Name, Fingerprint: m.Fingerprint()}
	for _, p := range points {
		t.Cells = append(t.Cells, Cell{
			Op: OpBcast, NP: int(p[0]), Size: p[1],
			Choice:  Choice{Comp: "KNEM-Coll", Seg: p[1]}, // marker: Seg == cell size
			Seconds: 1e-4,
		})
	}
	t.Sort()
	return t
}

func TestLookupExactAndBetween(t *testing.T) {
	m := topology.ByName("IG")
	d := NewDecider(gridTable(m, [][2]int64{{48, 64 << 10}, {48, 256 << 10}, {48, 1 << 20}}))

	cases := []struct {
		size     int64
		wantCell int64
		ok       bool
	}{
		{64 << 10, 64 << 10, true},   // exact grid point
		{256 << 10, 256 << 10, true}, // exact grid point
		{96 << 10, 64 << 10, true},   // log2(96K) is 0.58 above 64K, 1.42 below 256K
		{180 << 10, 256 << 10, true}, // closer to 256K in log2
		{128 << 10, 64 << 10, true},  // exactly between: tie resolves to the smaller cell
		{512 << 10, 256 << 10, true}, // exactly between 256K and 1M: smaller again
		{32 << 10, 64 << 10, true},   // one octave below the grid: clamps
		{2 << 20, 1 << 20, true},     // one octave above: clamps
		{16 << 10, 0, false},         // two octaves below: out of range
		{8 << 20, 0, false},          // three octaves above: out of range
		{48 << 20, 0, false},         // composed-op blowup (P x 1M): must not steer
	}
	for _, tc := range cases {
		c, ok := d.Lookup(OpBcast, 48, tc.size)
		if ok != tc.ok {
			t.Errorf("Lookup(size=%d): ok=%v, want %v", tc.size, ok, tc.ok)
			continue
		}
		if ok && c.Choice.Seg != tc.wantCell {
			t.Errorf("Lookup(size=%d) resolved to cell %d, want %d", tc.size, c.Choice.Seg, tc.wantCell)
		}
	}
}

func TestLookupNearestNP(t *testing.T) {
	m := topology.ByName("IG")
	d := NewDecider(gridTable(m, [][2]int64{{8, 64 << 10}, {48, 1 << 20}}))

	// np=8 exists: its cell wins.
	if c, ok := d.Lookup(OpBcast, 8, 64<<10); !ok || c.NP != 8 {
		t.Fatalf("np=8 lookup: got np=%d ok=%v, want the np=8 cell", c.NP, ok)
	}
	// np=12 is nearer 8 than 48.
	if c, ok := d.Lookup(OpBcast, 12, 64<<10); !ok || c.NP != 8 {
		t.Fatalf("np=12 lookup: got np=%d ok=%v, want the np=8 cell", c.NP, ok)
	}
	// np=40 is nearer 48.
	if c, ok := d.Lookup(OpBcast, 40, 1<<20); !ok || c.NP != 48 {
		t.Fatalf("np=40 lookup: got np=%d ok=%v, want the np=48 cell", c.NP, ok)
	}
	// Once the np is chosen, the size window applies within that np's
	// cells only: np=40 resolves to np=48 whose single size is 1M, so a
	// 64K query is out of the one-octave window even though an np=8 cell
	// sits at exactly 64K.
	if _, ok := d.Lookup(OpBcast, 40, 64<<10); ok {
		t.Fatalf("np=40 size=64K: steered by a cell 4 octaves away")
	}
}

func TestLookupSingleCell(t *testing.T) {
	m := topology.ByName("Zoot")
	d := NewDecider(gridTable(m, [][2]int64{{16, 1 << 20}}))

	for _, tc := range []struct {
		np   int
		size int64
		ok   bool
	}{
		{16, 1 << 20, true},
		{16, 512 << 10, true}, // one octave below
		{16, 2 << 20, true},   // one octave above
		{16, 256 << 10, false},
		{16, 4 << 20, false},
		{2, 1 << 20, true}, // any np resolves to the only tuned np
		{1000, 1 << 20, true},
	} {
		if _, ok := d.Lookup(OpBcast, tc.np, tc.size); ok != tc.ok {
			t.Errorf("single-cell Lookup(np=%d size=%d): ok=%v, want %v", tc.np, tc.size, ok, tc.ok)
		}
	}
}

func TestLookupDegenerateInputs(t *testing.T) {
	m := topology.ByName("Zoot")
	d := NewDecider(gridTable(m, [][2]int64{{16, 1}}))

	// Sub-byte and zero sizes must not panic; log2 clamps at 1.
	if _, ok := d.Lookup(OpBcast, 16, 0); !ok {
		t.Fatalf("size=0 did not clamp to the size-1 cell")
	}
	if _, ok := d.Lookup(OpBcast, 16, -5); !ok {
		t.Fatalf("negative size did not clamp")
	}
	// Unknown op: deterministic miss.
	if _, ok := d.Lookup("reduce", 16, 1); ok {
		t.Fatalf("untuned op returned a cell")
	}
	// Empty table decider.
	empty := NewDecider(&Table{Version: TableVersion, Machine: m.Name, Fingerprint: m.Fingerprint()})
	if _, ok := empty.Lookup(OpBcast, 16, 1<<20); ok {
		t.Fatalf("empty decider returned a cell")
	}
}

func TestLookupDeterministicTieBreak(t *testing.T) {
	m := topology.ByName("IG")
	d := NewDecider(gridTable(m, [][2]int64{{48, 64 << 10}, {48, 256 << 10}}))
	first, ok := d.Lookup(OpBcast, 48, 128<<10)
	if !ok {
		t.Fatal("tie lookup missed")
	}
	for i := 0; i < 100; i++ {
		c, ok := d.Lookup(OpBcast, 48, 128<<10)
		if !ok || c.Choice.Seg != first.Choice.Seg {
			t.Fatalf("tie break not deterministic: run %d got %d, first %d", i, c.Choice.Seg, first.Choice.Seg)
		}
	}
	if first.Choice.Seg != 64<<10 {
		t.Fatalf("tie resolved to %d, want the smaller cell 64K", first.Choice.Seg)
	}
}

func TestSet(t *testing.T) {
	zoot, ig := topology.ByName("Zoot"), topology.ByName("IG")
	s := NewSet()
	if s.Len() != 0 || s.For(zoot) != nil {
		t.Fatal("empty set not empty")
	}
	s.Add(gridTable(ig, [][2]int64{{48, 1 << 20}}))
	if s.Len() != 1 {
		t.Fatalf("Len=%d after one Add", s.Len())
	}
	if s.For(ig) == nil {
		t.Fatal("IG table not found for IG")
	}
	if s.For(zoot) != nil {
		t.Fatal("IG table steered Zoot")
	}
	var nilSet *Set
	if nilSet.For(ig) != nil || nilSet.Len() != 0 {
		t.Fatal("nil set not inert")
	}
}
