package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// Ablations quantify the design choices DESIGN.md calls out, each as an
// A/B measurement on the platform where it matters.

// AblationRow is one A/B comparison.
type AblationRow struct {
	Name    string
	A, B    string
	SecsA   float64
	SecsB   float64
	Speedup float64 // A/B: how much the design choice (B) wins
}

// RunAblations measures every documented design choice. The independent
// measurements all run as cells on the runner's worker pool
// (SetParallel); the rows are assembled in their historical order
// afterwards. It panics if any measurement fails.
func (r *Runner) RunAblations(iters int) []AblationRow {
	ig := topology.IG()
	cfgs := []Config{
		// 1. Broadcast topology (§IV): linear vs hierarchical vs pipelined.
		{Machine: ig, Comp: KNEMCollCfg("lin", core.Config{Mode: core.ModeLinear}), Op: OpBcast, Size: 2 * MiB, Iters: iters, OffCache: true},
		{Machine: ig, Comp: KNEMCollCfg("hier", core.Config{Mode: core.ModeHierarchical, NoPipeline: true}), Op: OpBcast, Size: 2 * MiB, Iters: iters, OffCache: true},
		{Machine: ig, Comp: KNEMCollCfg("pipe", core.Config{Mode: core.ModeHierarchical}), Op: OpBcast, Size: 2 * MiB, Iters: iters, OffCache: true},
		// 1b. Multi-level tree (the paper's future work): boards, then NUMA
		// domains, then cores.
		{Machine: ig, Comp: KNEMCollCfg("multi", core.Config{Mode: core.ModeMultiLevel}), Op: OpBcast, Size: 8 * MiB, Iters: iters, OffCache: true},
		{Machine: ig, Comp: KNEMCollCfg("pipe8", core.Config{Mode: core.ModeHierarchical}), Op: OpBcast, Size: 8 * MiB, Iters: iters, OffCache: true},
		// 2. Allgather composition vs ring (§VI-D).
		{Machine: ig, Comp: KNEMCollCfg("g+b", core.Config{}), Op: OpAllgather, Size: 256 * KiB, Iters: iters, OffCache: true},
		{Machine: ig, Comp: KNEMCollCfg("ring", core.Config{RingAllgather: true}), Op: OpAllgather, Size: 256 * KiB, Iters: iters, OffCache: true},
		// 3. Direction control (§III-B): gather with sender-writes vs the
		// same pattern forced through receiver-side p2p (Tuned-KNEM).
		{Machine: ig, Comp: KNEMColl(), Op: OpGather, Size: 256 * KiB, Iters: iters, OffCache: true},
		{Machine: ig, Comp: TunedKNEM(), Op: OpGather, Size: 256 * KiB, Iters: iters, OffCache: true},
		// 4. Related work (§II): the Graham et al. fan-in/fan-out SM tree —
		// topology-oblivious and double-copying — against KNEM-Coll.
		{Machine: ig, Comp: SMColl(), Op: OpBcast, Size: 1 * MiB, Iters: iters, OffCache: true},
		{Machine: ig, Comp: KNEMColl(), Op: OpBcast, Size: 1 * MiB, Iters: iters, OffCache: true},
	}
	// 5. Lazy root synchronization under skew: a straggling receiver
	// arrives 1 ms late; the strict root absorbs it, the lazy one does not.
	secs := make([]float64, len(cfgs)+2)
	if err := r.runCellsCtx(context.Background(), len(secs), func(i int) error {
		if i >= len(cfgs) {
			var err error
			secs[i], err = lazySyncMeasure(i == len(cfgs)+1)
			return err
		}
		res, err := r.Measure(cfgs[i])
		secs[i] = res.Seconds
		return err
	}); err != nil {
		panic(err)
	}

	lin, hier, pipe, multi, pipe8 := secs[0], secs[1], secs[2], secs[3], secs[4]
	comp, ring, dirOn, dirOff, smc, knm := secs[5], secs[6], secs[7], secs[8], secs[9], secs[10]
	strict, lazy := secs[len(cfgs)], secs[len(cfgs)+1]
	rows := []AblationRow{}
	add := func(name, a, b string, sa, sb float64) {
		rows = append(rows, AblationRow{Name: name, A: a, B: b, SecsA: sa, SecsB: sb, Speedup: sa / sb})
	}
	add("bcast topology (IG, 2MiB)", "linear", "hierarchical", lin, hier)
	add("bcast pipelining (IG, 2MiB)", "no pipeline", "pipelined", hier, pipe)
	add("bcast tree depth (IG, 8MiB)", "2-level (paper)", "3-level (future work)", pipe8, multi)
	add("allgather (IG, 256KiB blocks)", "gather+bcast", "ring", comp, ring)
	add("gather direction control (IG)", "p2p (root copies)", "sender-writes", dirOff, dirOn)
	add("vs Graham SM tree (IG bcast 1MiB)", "SM fan-out", "KNEM hierarchy", smc, knm)
	add("root sync under 1ms straggler", "strict (§V-B)", "lazy (§III-B)", strict, lazy)
	return rows
}

// lazySyncMeasure times the root's Bcast exposure to a 1 ms straggler under
// strict or lazy root synchronization.
func lazySyncMeasure(lazy bool) (float64, error) {
	m := topology.Dancer()
	var rootTime float64
	_, _, err := mpi.Run(mpi.Options{
		Machine: m,
		Coll: func(w *mpi.World) mpi.Coll {
			return core.NewWithConfig(w, core.Config{Mode: core.ModeLinear, LazySync: lazy})
		},
	}, func(r *mpi.Rank) {
		b := r.Alloc(1 << 20)
		if r.ID() == 7 {
			r.Sleep(1e-3)
		}
		t0 := r.Now()
		r.Bcast(b.Whole(), 0)
		if r.ID() == 0 {
			rootTime = r.Now() - t0
		}
		r.Barrier()
	})
	return rootTime, err
}

// RenderAblations prints the table.
func RenderAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "## Design-choice ablations")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %-18s %9.1fus   %-18s %9.1fus   %6.2fx\n",
			r.Name, r.A, r.SecsA*1e6, r.B, r.SecsB*1e6, r.Speedup)
	}
}
