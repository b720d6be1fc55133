package tune

import (
	"math"
	"sort"

	"repro/internal/topology"
)

// Decider answers runtime "which configuration should this collective
// use?" queries from a loaded decision table. Lookups interpolate to the
// nearest tuned cell in (log2 size, nranks) space, so sizes between grid
// points — or below the smallest / above the largest tuned cell — resolve
// deterministically to the closest measurement instead of falling off the
// table. Operations the table never tuned return ok=false, and the caller
// keeps its hardcoded rules.
//
// A Decider is immutable after construction and safe for concurrent use by
// every rank of a world.
type Decider struct {
	table *Table
	// hash is the table's ContentHash, computed once at construction:
	// every memo key of a steered cell names it.
	hash string
	// byOp indexes cells per operation, sorted by (np, size); lookups
	// only ever scan one op's cells.
	byOp map[string][]Cell
}

// NewDecider builds a Decider over a validated table. The table must not
// be mutated afterwards.
func NewDecider(t *Table) *Decider {
	d := &Decider{table: t, hash: t.ContentHash(), byOp: make(map[string][]Cell)}
	for _, c := range t.Cells {
		d.byOp[c.Op] = append(d.byOp[c.Op], c)
	}
	for op := range d.byOp {
		cells := d.byOp[op]
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].NP != cells[j].NP {
				return cells[i].NP < cells[j].NP
			}
			return cells[i].Size < cells[j].Size
		})
	}
	return d
}

// Table returns the decision table the Decider serves.
func (d *Decider) Table() *Table { return d.table }

// ContentHash returns Table().ContentHash(), computed once by NewDecider.
func (d *Decider) ContentHash() string { return d.hash }

// maxExtrapolation bounds how far beyond the tuned grid a decision still
// applies: one octave in log2(size). Queries further out (for example the
// P-times-larger inner Broadcast of a composed Allgather) return ok=false
// and the caller keeps its hardcoded rules — a measurement taken at 8 MiB
// says nothing trustworthy about 384 MiB.
const maxExtrapolation = 1.0

// Lookup returns the tuned cell nearest to (op, np, size). Nearest means:
// first the closest tuned nranks (a 48-rank decision should not leak onto
// an 8-rank run just because the sizes align), then the closest size in
// log2 space, with ties broken toward the smaller cell size — so a query
// exactly between two grid points always resolves the same way. Sizes
// between grid points, and up to one octave below the smallest or above
// the largest tuned cell, clamp to the nearest cell; beyond that, and for
// operations the table never tuned, ok is false.
func (d *Decider) Lookup(op string, np int, size int64) (Cell, bool) {
	cells := d.byOp[op]
	if len(cells) == 0 {
		return Cell{}, false
	}
	bestNP := cells[0].NP
	for _, c := range cells[1:] {
		if npDist(c.NP, np) < npDist(bestNP, np) {
			bestNP = c.NP
		}
	}
	lq := log2(size)
	best := -1
	var bestD float64
	for i, c := range cells {
		if c.NP != bestNP {
			continue
		}
		dist := math.Abs(log2(c.Size) - lq)
		if best < 0 || dist < bestD-1e-12 {
			best, bestD = i, dist
		}
	}
	if bestD > maxExtrapolation+1e-12 {
		return Cell{}, false
	}
	return cells[best], true
}

func npDist(cell, query int) int {
	d := cell - query
	if d < 0 {
		d = -d
	}
	return d
}

func log2(n int64) float64 {
	if n < 1 {
		n = 1
	}
	return math.Log2(float64(n))
}

// Set is a collection of Deciders keyed by machine fingerprint. Multi-
// machine sweeps (the Fig. 5-8 builders) look their machine up here; a
// table built for a different machine simply never matches, so decisions
// can only ever steer the hardware they were tuned on.
type Set struct {
	byFP map[string]*Decider
}

// NewSet builds an empty decision set.
func NewSet() *Set { return &Set{byFP: make(map[string]*Decider)} }

// Add registers a table's Decider under its fingerprint. The last table
// added for a fingerprint wins.
func (s *Set) Add(t *Table) {
	s.byFP[t.Fingerprint] = NewDecider(t)
}

// For returns the Decider tuned for exactly this machine, or nil.
func (s *Set) For(m *topology.Machine) *Decider {
	if s == nil || m == nil {
		return nil
	}
	return s.byFP[m.Fingerprint()]
}

// Len reports how many machines the set covers.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.byFP)
}
