// Package search is the autotuner's measurement-driven search driver: it
// sweeps candidate configurations — component choice, KNEM-Coll Broadcast
// mode, pipeline segment size, KNEM activation threshold, Tuned tree
// fanout — over a grid of (op, nranks, msgsize) cells on one machine, and
// emits a tune.Table recording each cell's winner.
//
// The sweep runs on internal/bench's deterministic parallel cell runner,
// so a search is reproducible bit-for-bit at any -parallel level: every
// cell simulates in its own engine, results are assembled in candidate
// order, and ties break toward the earlier candidate.
//
// Cost control is successive halving: every candidate is measured at a few
// probe sizes (smallest, middle, largest of the grid) first, and only
// candidates within KeepFactor of the probe best anywhere survive to the
// full grid. The all-default configuration of each component family is
// never pruned, which keeps two invariants: each cell can always record
// the family's default time next to its tuned best, and the tuned best is
// at least as fast as the default by construction.
package search

import (
	"fmt"
	"sort"

	"repro/internal/bench"
	"repro/internal/coll/hier"
	"repro/internal/coll/tuned"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/tune"
)

// DefaultKeepFactor is the successive-halving pruning rule: a non-default
// candidate survives the probe round only if, at some probe size, it was
// within this factor of that probe's best time.
const DefaultKeepFactor = 1.5

// Options configures one search.
type Options struct {
	Machine *topology.Machine
	// Cluster, when non-nil, runs a cluster search: Machine defaults to
	// the cluster's composite machine (and must equal it when both are
	// set), and the hierarchical node-leader family joins the candidate
	// grid for the operations it decomposes.
	Cluster *topology.Cluster
	// Ops to tune; default tune.Ops() minus the vector variants (their
	// per-rank counts admit no globally consistent size switch, so the
	// runtime cannot apply per-size decisions to them).
	Ops []string
	// NPs are the communicator sizes to tune; default the full machine.
	NPs []int
	// Sizes are the message/block sizes of the grid; default the paper's
	// Fig. 5-8 x-axis (32 KiB .. 8 MiB).
	Sizes []int64
	// Iters is the measured iterations per cell (default 1).
	Iters int
	// Seed is recorded in the table; the search itself draws no
	// randomness, so equal inputs always emit byte-identical tables.
	Seed int64
	// KeepFactor overrides DefaultKeepFactor.
	KeepFactor float64
	// Log, when non-nil, receives progress lines (pruning decisions,
	// per-op cell counts).
	Log func(format string, args ...any)
}

func (o *Options) fill() error {
	if o.Cluster != nil {
		if o.Machine == nil {
			o.Machine = o.Cluster.Global
		} else if o.Machine != o.Cluster.Global {
			return fmt.Errorf("search: Machine differs from Cluster.Global")
		}
	}
	if o.Machine == nil {
		return fmt.Errorf("search: no machine")
	}
	if len(o.Ops) == 0 {
		o.Ops = []string{tune.OpBcast, tune.OpGather, tune.OpScatter, tune.OpAllgather, tune.OpAlltoall}
	}
	if len(o.NPs) == 0 {
		o.NPs = []int{o.Machine.NCores()}
	}
	if len(o.Sizes) == 0 {
		o.Sizes = bench.PaperSizes()
	}
	if o.Iters == 0 {
		o.Iters = 1
	}
	if o.KeepFactor == 0 {
		o.KeepFactor = DefaultKeepFactor
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	for _, op := range o.Ops {
		if !validOp(op) {
			return fmt.Errorf("search: cannot tune op %q (valid: %v)", op, tunableOps())
		}
	}
	for _, np := range o.NPs {
		if np < 1 || np > o.Machine.NCores() {
			return fmt.Errorf("search: np=%d out of range for %d cores", np, o.Machine.NCores())
		}
	}
	for _, sz := range o.Sizes {
		if sz < 1 {
			return fmt.Errorf("search: bad size %d", sz)
		}
	}
	return nil
}

func tunableOps() []string {
	return []string{tune.OpBcast, tune.OpGather, tune.OpScatter, tune.OpAllgather, tune.OpAlltoall}
}

func validOp(op string) bool {
	for _, o := range tunableOps() {
		if o == op {
			return true
		}
	}
	return false
}

// family groups candidates whose best the runtime can actually apply to
// one component; "other" components (MPICH2, SM-Coll) compete for the
// overall winner only.
type family int

const (
	famOther family = iota
	famKnem
	famTunedSM
	famTunedKNEM
)

type candidate struct {
	choice tune.Choice
	comp   bench.Comp
	fam    family
	// def marks the family's all-default configuration: never pruned, and
	// the baseline the family's tuned best is compared against.
	def bool
}

// SegCandidates is the pipeline-segment grid the tuner sweeps for the
// hierarchical Broadcast: the paper's tuned values (16 KiB, 512 KiB) plus
// the octaves between them.
func SegCandidates() []int64 {
	return []int64{16 << 10, 64 << 10, 256 << 10, 512 << 10}
}

// thresholdCandidates are alternative KNEM activation thresholds; the
// default 16 KiB is covered by the family default.
func thresholdCandidates() []int64 {
	return []int64{4 << 10, 64 << 10}
}

// candidates returns the deterministic candidate list for one op on one
// machine (plus the hierarchical family when a cluster is being searched).
// Order matters: winners tie-break toward earlier entries.
func candidates(m *topology.Machine, cl *topology.Cluster, op string) []candidate {
	var cands []candidate
	add := func(ch tune.Choice, fam family, def bool) {
		cands = append(cands, candidate{choice: ch, comp: compFor(ch, cl), fam: fam, def: def})
	}
	// Family defaults first: they are every cell's baseline.
	add(tune.Choice{Comp: "KNEM-Coll"}, famKnem, true)
	add(tune.Choice{Comp: "Tuned-SM"}, famTunedSM, true)
	add(tune.Choice{Comp: "Tuned-KNEM"}, famTunedKNEM, true)
	add(tune.Choice{Comp: "MPICH2-SM"}, famOther, true)
	add(tune.Choice{Comp: "MPICH2-KNEM"}, famOther, true)
	add(tune.Choice{Comp: "SM-Coll"}, famOther, true)
	for _, thr := range thresholdCandidates() {
		add(tune.Choice{Comp: "KNEM-Coll", Threshold: thr}, famKnem, false)
	}
	switch op {
	case tune.OpBcast:
		add(tune.Choice{Comp: "KNEM-Coll", Mode: "linear"}, famKnem, false)
		for _, seg := range SegCandidates() {
			add(tune.Choice{Comp: "KNEM-Coll", Mode: "hierarchical", Seg: seg}, famKnem, false)
		}
		if m.Boards() > 1 {
			add(tune.Choice{Comp: "KNEM-Coll", Mode: "multilevel"}, famKnem, false)
		}
		for _, fan := range []int{1, 2} {
			add(tune.Choice{Comp: "Tuned-SM", Fanout: fan}, famTunedSM, false)
			add(tune.Choice{Comp: "Tuned-KNEM", Fanout: fan}, famTunedKNEM, false)
		}
	case tune.OpAllgather:
		add(tune.Choice{Comp: "KNEM-Coll", Mode: "ring"}, famKnem, false)
	}
	// On cluster searches the hierarchical family competes for every op it
	// actually decomposes (the rest delegate to Tuned-SM and would only
	// duplicate its times). Defaults so the probe round never prunes them:
	// fabric-dominated cells can look hopeless at probe sizes yet win the
	// full grid.
	if cl != nil {
		switch op {
		case tune.OpBcast, tune.OpGather, tune.OpScatter, tune.OpAllgather:
			add(tune.Choice{Comp: "Hier-Tree"}, famOther, true)
			add(tune.Choice{Comp: "Hier-Ring"}, famOther, true)
		}
	}
	return cands
}

// compFor maps a search-space point to a measurable bench component. The
// explicit core/tuned Configs here mirror exactly what the runtime Decider
// application reconstructs from the persisted Choice, so a decided run
// reproduces the searched time.
func compFor(ch tune.Choice, cl *topology.Cluster) bench.Comp {
	name := ch.String()
	switch ch.Comp {
	case "Hier-Tree":
		return bench.Hier(cl)
	case "Hier-Ring":
		return bench.HierCfg(cl, hier.Config{Inter: "ring"})
	case "KNEM-Coll":
		cfg := core.Config{Threshold: ch.Threshold, FixedSeg: ch.Seg}
		switch ch.Mode {
		case "linear":
			cfg.Mode = core.ModeLinear
		case "hierarchical":
			cfg.Mode = core.ModeHierarchical
		case "multilevel":
			cfg.Mode = core.ModeMultiLevel
		case "ring":
			cfg.RingAllgather = true
		}
		return bench.KNEMCollCfg(name, cfg)
	case "Tuned-SM", "Tuned-KNEM":
		cfg := tuned.Config{Fanout: ch.Fanout, Seg: ch.Seg}
		btl := mpi.BTLSM
		if ch.Comp == "Tuned-KNEM" {
			btl = mpi.BTLKNEM
		}
		return bench.TunedCfg(name, btl, cfg)
	case "MPICH2-SM":
		return bench.MPICH2SM()
	case "MPICH2-KNEM":
		return bench.MPICH2KNEM()
	case "SM-Coll":
		return bench.SMColl()
	}
	panic("search: unknown component " + ch.Comp)
}

// Run executes the search on run's worker pool and memo, and returns the
// validated decision table.
func Run(run *bench.Runner, o Options) (*tune.Table, error) {
	if err := o.fill(); err != nil {
		return nil, err
	}
	sizes := append([]int64(nil), o.Sizes...)
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	t := &tune.Table{
		Version:     tune.TableVersion,
		Machine:     o.Machine.Name,
		Fingerprint: tune.Fingerprint(o.Machine),
		Seed:        o.Seed,
		Grid: tune.Grid{
			Ops: append([]string(nil), o.Ops...), NPs: append([]int(nil), o.NPs...),
			Sizes: sizes, Iters: o.Iters, KeepFactor: o.KeepFactor,
		},
	}
	for _, op := range o.Ops {
		for _, np := range o.NPs {
			cells, err := searchOpNP(run, o, op, np, sizes)
			if err != nil {
				return nil, err
			}
			t.Cells = append(t.Cells, cells...)
		}
	}
	t.Sort()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("search: emitted an invalid table: %w", err)
	}
	return t, nil
}

// searchOpNP runs the two successive-halving rounds for one (op, np) pair
// and builds its cells.
func searchOpNP(run *bench.Runner, o Options, op string, np int, sizes []int64) ([]tune.Cell, error) {
	cands := candidates(o.Machine, o.Cluster, op)
	probes := probeSizes(sizes)

	measure := func(cs []candidate, szs []int64) [][]float64 {
		cfgs := make([]bench.Config, 0, len(cs)*len(szs))
		for _, c := range cs {
			for _, sz := range szs {
				cfgs = append(cfgs, bench.Config{
					Machine: o.Machine, NP: np, Comp: c.comp, Op: bench.Op(op),
					Size: sz, Iters: o.Iters, OffCache: true,
				})
			}
		}
		res := run.MeasureAll(cfgs)
		out := make([][]float64, len(cs))
		for i := range cs {
			out[i] = make([]float64, len(szs))
			for j := range szs {
				out[i][j] = res[i*len(szs)+j].Seconds
			}
		}
		return out
	}

	probeT := measure(cands, probes)
	bestProbe := make([]float64, len(probes))
	for j := range probes {
		bestProbe[j] = probeT[0][j]
		for i := range cands {
			if probeT[i][j] < bestProbe[j] {
				bestProbe[j] = probeT[i][j]
			}
		}
	}
	var survivors []candidate
	survived := make([]bool, len(cands))
	for i, c := range cands {
		keep := c.def
		for j := range probes {
			if probeT[i][j] <= bestProbe[j]*o.KeepFactor {
				keep = true
			}
		}
		survived[i] = keep
		if keep {
			survivors = append(survivors, c)
		}
	}
	o.Log("%s np=%d: %d/%d candidates survive the %d-size probe (keep %.2fx)",
		op, np, len(survivors), len(cands), len(probes), o.KeepFactor)

	rest := restSizes(sizes, probes)
	restT := measure(survivors, rest)

	// timeAt returns candidate i's time at size sz, and whether it was
	// measured there (probe sizes: everyone; remaining sizes: survivors).
	timeAt := func(i int, sz int64) (float64, bool) {
		for j, p := range probes {
			if p == sz {
				return probeT[i][j], true
			}
		}
		if !survived[i] {
			return 0, false
		}
		si := 0
		for k := 0; k < i; k++ {
			if survived[k] {
				si++
			}
		}
		for j, rsz := range rest {
			if rsz == sz {
				return restT[si][j], true
			}
		}
		return 0, false
	}

	cells := make([]tune.Cell, 0, len(sizes))
	for _, sz := range sizes {
		cell := tune.Cell{Op: op, NP: np, Size: sz}
		winner, runner := -1, -1
		famBest := map[family]int{}
		famDefault := map[family]float64{}
		for i, c := range cands {
			ti, ok := timeAt(i, sz)
			if !ok {
				continue
			}
			if winner < 0 || ti < mustTime(timeAt(winner, sz)) {
				runner = winner
				winner = i
			} else if runner < 0 || ti < mustTime(timeAt(runner, sz)) {
				runner = i
			}
			if c.fam != famOther {
				if b, ok := famBest[c.fam]; !ok || ti < mustTime(timeAt(b, sz)) {
					famBest[c.fam] = i
				}
				if c.def {
					famDefault[c.fam] = ti
				}
			}
		}
		cell.Choice = cands[winner].choice
		cell.Seconds = mustTime(timeAt(winner, sz))
		if runner >= 0 {
			cell.RunnerUp = cands[runner].choice.String()
			cell.RunnerUpSeconds = mustTime(timeAt(runner, sz))
		}
		alt := func(f family) *tune.Alt {
			i, ok := famBest[f]
			if !ok {
				return nil
			}
			return &tune.Alt{
				Choice:         cands[i].choice,
				Seconds:        mustTime(timeAt(i, sz)),
				DefaultSeconds: famDefault[f],
			}
		}
		cell.Alts = tune.Alts{Knem: alt(famKnem), TunedSM: alt(famTunedSM), TunedKNEM: alt(famTunedKNEM)}
		cells = append(cells, cell)
	}
	return cells, nil
}

func mustTime(t float64, ok bool) float64 {
	if !ok {
		panic("search: time queried for an unmeasured candidate")
	}
	return t
}

// probeSizes picks the coarse successive-halving probes: the grid's
// smallest, middle, and largest sizes (the whole grid when it has three or
// fewer points).
func probeSizes(sizes []int64) []int64 {
	if len(sizes) <= 3 {
		return sizes
	}
	return []int64{sizes[0], sizes[len(sizes)/2], sizes[len(sizes)-1]}
}

func restSizes(sizes, probes []int64) []int64 {
	isProbe := map[int64]bool{}
	for _, p := range probes {
		isProbe[p] = true
	}
	var rest []int64
	for _, sz := range sizes {
		if !isProbe[sz] {
			rest = append(rest, sz)
		}
	}
	return rest
}
