// Package tune holds the empirical autotuner's persisted artifacts: the
// versioned decision-table format produced by the search driver
// (internal/tune/search, cmd/tune) and the runtime Decider that the
// collective components consult instead of their hardcoded switch points.
//
// The paper hand-tunes its one free parameter (Fig. 4: 16 KiB pipeline
// segments below 2 MiB, 512 KiB at or above) and hardcodes every switch
// point (the 16 KiB KNEM profitability threshold, the Tuned and MPICH2
// decision rules). Both are per-machine, per-size, per-nranks functions
// best discovered empirically. Because the simulator is deterministic, an
// exhaustive offline sweep is reproducible: the same machine, grid, and
// seed always emit a byte-identical table, at any parallelism level.
//
// A table is bound to one machine by a structural fingerprint (topology +
// calibration constants); loading it against a different machine is
// rejected, so a table tuned on IG can never silently steer Zoot.
//
// This package is a leaf: it depends only on internal/topology, so the
// runtime consumers (internal/mpi, internal/core, internal/coll/tuned) can
// import it without cycles. The measurement-driven search lives in
// internal/tune/search.
package tune

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/topology"
)

// TableVersion is the current decision-table schema version. Tables with a
// different version are rejected by Validate.
const TableVersion = 1

// Operation names used in decision-table cells. They match the string
// values of bench.Op for the operations the tuner covers.
const (
	OpBcast     = "bcast"
	OpGather    = "gather"
	OpScatter   = "scatter"
	OpAllgather = "allgather"
	OpAlltoall  = "alltoall"
	OpAlltoallv = "alltoallv"
)

// Ops lists every operation the tuner knows, in canonical order.
func Ops() []string {
	return []string{OpBcast, OpGather, OpScatter, OpAllgather, OpAlltoall, OpAlltoallv}
}

// Choice is one point of the search space: a collective component plus the
// knobs the tuner may turn on it. Zero values mean "the component's
// default".
type Choice struct {
	// Comp names the winning component configuration: "KNEM-Coll",
	// "Tuned-SM", "Tuned-KNEM", "MPICH2-SM", "MPICH2-KNEM", "SM-Coll",
	// or — on cluster searches — "Hier-Tree" / "Hier-Ring".
	Comp string `json:"comp"`
	// Mode is the KNEM-Coll Broadcast topology ("linear", "hierarchical",
	// "multilevel") or "ring" for the KNEM-Coll ring Allgather; empty
	// keeps the component's automatic per-platform choice.
	Mode string `json:"mode,omitempty"`
	// Seg is the pipeline segment size in bytes (KNEM-Coll hierarchical
	// Broadcast, or the Tuned tree/chain pipelines); 0 keeps the default.
	Seg int64 `json:"seg,omitempty"`
	// Threshold is the KNEM activation threshold in bytes below which
	// KNEM-Coll delegates to its fallback; 0 keeps the default 16 KiB.
	Threshold int64 `json:"threshold,omitempty"`
	// Fanout selects the Tuned Broadcast tree fanout: 1 forces the
	// pipelined chain, 2 the pipelined binary tree; 0 keeps the
	// size-based rule.
	Fanout int `json:"fanout,omitempty"`
}

// String renders the choice compactly for tables and diffs.
func (ch Choice) String() string {
	s := ch.Comp
	if ch.Mode != "" {
		s += " " + ch.Mode
	}
	if ch.Seg > 0 {
		s += fmt.Sprintf(" seg=%s", sizeLabel(ch.Seg))
	}
	if ch.Threshold > 0 {
		s += fmt.Sprintf(" thr=%s", sizeLabel(ch.Threshold))
	}
	if ch.Fanout > 0 {
		s += fmt.Sprintf(" fanout=%d", ch.Fanout)
	}
	return s
}

// Alt records the best variant of one component family for a cell, so the
// runtime can steer that family even when the overall winner is a
// different component: KNEM-Coll needs its own best knobs (and the
// fallback's time, to know when delegating wins), and each Tuned flavour
// needs its best segment/fanout.
type Alt struct {
	Choice  Choice  `json:"choice"`
	Seconds float64 `json:"seconds"`
	// DefaultSeconds is the family's all-default configuration measured
	// on the same cell; the search never prunes the default candidates,
	// so Seconds <= DefaultSeconds always holds and tuned decisions are
	// at least as fast as the hardcoded rules on every tuned cell.
	DefaultSeconds float64 `json:"default_seconds"`
}

// Alts carries the per-family bests of one cell. A nil entry means the
// family was not part of the search space for this operation.
type Alts struct {
	// Knem is the best KNEM-Coll-internal configuration.
	Knem *Alt `json:"knem,omitempty"`
	// TunedSM is the best Tuned-over-SM configuration — also what the
	// KNEM-Coll fallback runs, so core compares Knem against it when
	// deciding whether to delegate.
	TunedSM *Alt `json:"tuned_sm,omitempty"`
	// TunedKNEM is the best Tuned-over-KNEM-BTL configuration.
	TunedKNEM *Alt `json:"tuned_knem,omitempty"`
}

// Cell is one tuned grid point: the winning configuration for (op, np,
// size) on the table's machine, with enough context to audit the decision.
type Cell struct {
	Op   string `json:"op"`
	NP   int    `json:"np"`
	Size int64  `json:"size"`
	// Choice is the overall winner and Seconds its simulated time.
	Choice  Choice  `json:"choice"`
	Seconds float64 `json:"seconds"`
	// RunnerUp is the best non-winning candidate and its time; the margin
	// (RunnerUpSeconds/Seconds - 1) says how contested the cell was.
	RunnerUp        string  `json:"runner_up,omitempty"`
	RunnerUpSeconds float64 `json:"runner_up_seconds,omitempty"`
	// Alts are the per-family bests the runtime components consult.
	Alts Alts `json:"alts"`
}

// Margin is the runner-up's slowdown relative to the winner (0 when no
// runner-up was recorded).
func (c Cell) Margin() float64 {
	if c.RunnerUpSeconds <= 0 || c.Seconds <= 0 {
		return 0
	}
	return c.RunnerUpSeconds/c.Seconds - 1
}

// Grid records the search inputs, so a table documents how it was made and
// a re-run can reproduce it bit-for-bit.
type Grid struct {
	Ops   []string `json:"ops"`
	NPs   []int    `json:"nps"`
	Sizes []int64  `json:"sizes"`
	Iters int      `json:"iters"`
	// KeepFactor is the successive-halving pruning rule: after the probe
	// sizes, a candidate survives only if at some probe it was within
	// KeepFactor x the probe's best (defaults never pruned).
	KeepFactor float64 `json:"keep_factor"`
}

// Table is a persisted decision table for one machine.
type Table struct {
	Version     int    `json:"version"`
	Machine     string `json:"machine"`
	Fingerprint string `json:"fingerprint"`
	Seed        int64  `json:"seed"`
	Grid        Grid   `json:"grid"`
	Cells       []Cell `json:"cells"`
}

// knownComps are the component names a valid cell may reference.
var knownComps = map[string]bool{
	"KNEM-Coll": true, "Tuned-SM": true, "Tuned-KNEM": true,
	"MPICH2-SM": true, "MPICH2-KNEM": true, "SM-Coll": true, "Basic-SM": true,
	"Hier-Tree": true, "Hier-Ring": true,
}

func validChoice(ch Choice, where string) error {
	if !knownComps[ch.Comp] {
		return fmt.Errorf("tune: %s: unknown component %q", where, ch.Comp)
	}
	switch ch.Mode {
	case "", "linear", "hierarchical", "multilevel", "ring":
	default:
		return fmt.Errorf("tune: %s: unknown mode %q", where, ch.Mode)
	}
	if ch.Seg < 0 || ch.Threshold < 0 || ch.Fanout < 0 || ch.Fanout > 2 {
		return fmt.Errorf("tune: %s: negative or out-of-range knob (seg=%d thr=%d fanout=%d)",
			where, ch.Seg, ch.Threshold, ch.Fanout)
	}
	return nil
}

func validSeconds(s float64, where string) error {
	if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
		return fmt.Errorf("tune: %s: bad time %v (want finite > 0)", where, s)
	}
	return nil
}

func validAlt(a *Alt, where string) error {
	if a == nil {
		return nil
	}
	if err := validChoice(a.Choice, where); err != nil {
		return err
	}
	if err := validSeconds(a.Seconds, where); err != nil {
		return err
	}
	return validSeconds(a.DefaultSeconds, where+" default")
}

// Validate checks the table's structural invariants: schema version,
// non-empty machine and fingerprint, known operations and components,
// finite positive times, and cells unique and sorted by (op, np, size).
func (t *Table) Validate() error {
	if t.Version != TableVersion {
		return fmt.Errorf("tune: table version %d, this build reads version %d", t.Version, TableVersion)
	}
	if t.Machine == "" {
		return fmt.Errorf("tune: table has no machine name")
	}
	if t.Fingerprint == "" {
		return fmt.Errorf("tune: table has no machine fingerprint")
	}
	if len(t.Cells) == 0 {
		return fmt.Errorf("tune: table has no cells")
	}
	ops := map[string]bool{}
	for _, op := range Ops() {
		ops[op] = true
	}
	for i, c := range t.Cells {
		where := fmt.Sprintf("cell %d (%s np=%d size=%d)", i, c.Op, c.NP, c.Size)
		if !ops[c.Op] {
			return fmt.Errorf("tune: %s: unknown op %q", where, c.Op)
		}
		if c.NP < 1 {
			return fmt.Errorf("tune: %s: bad np", where)
		}
		if c.Size < 1 {
			return fmt.Errorf("tune: %s: bad size", where)
		}
		if err := validChoice(c.Choice, where); err != nil {
			return err
		}
		if err := validSeconds(c.Seconds, where); err != nil {
			return err
		}
		if c.RunnerUpSeconds != 0 {
			if err := validSeconds(c.RunnerUpSeconds, where+" runner-up"); err != nil {
				return err
			}
		}
		if err := validAlt(c.Alts.Knem, where+" alts.knem"); err != nil {
			return err
		}
		if err := validAlt(c.Alts.TunedSM, where+" alts.tuned_sm"); err != nil {
			return err
		}
		if err := validAlt(c.Alts.TunedKNEM, where+" alts.tuned_knem"); err != nil {
			return err
		}
		if i > 0 && !cellLess(t.Cells[i-1], c) {
			if t.Cells[i-1].Op == c.Op && t.Cells[i-1].NP == c.NP && t.Cells[i-1].Size == c.Size {
				return fmt.Errorf("tune: %s: duplicate cell", where)
			}
			return fmt.Errorf("tune: %s: cells not sorted by (op, np, size)", where)
		}
	}
	return nil
}

func cellLess(a, b Cell) bool {
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	if a.NP != b.NP {
		return a.NP < b.NP
	}
	return a.Size < b.Size
}

// Sort orders cells canonically by (op, np, size); Write calls it so the
// emitted bytes never depend on search scheduling.
func (t *Table) Sort() {
	sort.Slice(t.Cells, func(i, j int) bool { return cellLess(t.Cells[i], t.Cells[j]) })
}

// Parse decodes and validates a table from raw JSON. Unknown fields are
// rejected so a future-version table cannot be silently misread.
func Parse(data []byte) (*Table, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var t Table
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("tune: bad decision table: %w", err)
	}
	// Trailing garbage after the JSON value is an error too.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("tune: trailing data after decision table")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Load reads a decision table from path. When m is non-nil the table must
// have been built for that exact machine: the name and the structural
// fingerprint both have to match, so stale or foreign tables are rejected
// instead of silently steering the wrong hardware.
func Load(path string, m *topology.Machine) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tune: %w", err)
	}
	t, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("tune: %s: %w", path, err)
	}
	if m != nil {
		if err := t.CheckMachine(m); err != nil {
			return nil, fmt.Errorf("tune: %s: %w", path, err)
		}
	}
	return t, nil
}

// CheckMachine verifies the table was built for machine m.
func (t *Table) CheckMachine(m *topology.Machine) error {
	if t.Machine != m.Name {
		return fmt.Errorf("table is for machine %q, not %q", t.Machine, m.Name)
	}
	if fp := m.Fingerprint(); t.Fingerprint != fp {
		return fmt.Errorf("machine fingerprint mismatch: table %s, machine %s (the machine model changed since the table was tuned; re-run `tune search`)", t.Fingerprint, fp)
	}
	return nil
}

// Write emits the table as canonical JSON: cells sorted, two-space
// indentation, a trailing newline. Identical tables encode to identical
// bytes, which the CI determinism guard relies on.
func (t *Table) Write(w io.Writer) error {
	t.Sort()
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("tune: encode table: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteFile writes the canonical encoding to path.
func (t *Table) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ContentHash returns a short stable hash of the table's canonical
// encoding (Write's bytes). The benchmark memoization layer folds it into
// its cache keys: runs steered by byte-identical tables share cached
// cells, and any decision drift invalidates them.
func (t *Table) ContentHash() string {
	var b strings.Builder
	if err := t.Write(&b); err != nil {
		// A validated in-memory table always encodes; refuse to guess.
		panic(fmt.Sprintf("tune: encoding table for hash: %v", err))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:8])
}

func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	}
	return fmt.Sprintf("%d", n)
}
