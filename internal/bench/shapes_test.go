package bench

// Shape tests: each encodes a claim from the paper's evaluation (§VI) as
// an executable assertion against the simulator. Absolute times are not
// asserted — only who wins and by roughly what factor (see EXPERIMENTS.md
// for the recorded values and the known deviations).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

func measure(t *testing.T, m *topology.Machine, c Comp, op Op, size int64) float64 {
	t.Helper()
	r, err := Default.Measure(Config{Machine: m, Comp: c, Op: op, Size: size, Iters: 1, OffCache: true})
	if err != nil {
		t.Fatal(err)
	}
	return r.Seconds
}

func wantFaster(t *testing.T, what string, slow, fast, factor float64) {
	t.Helper()
	if slow < fast*factor {
		t.Errorf("%s: %.1fus vs %.1fus — expected at least %.2fx", what, slow*1e6, fast*1e6, factor)
	}
}

// Fig. 4: on IG, the hierarchical Broadcast beats the linear one by ~2x,
// pipelining adds a further >= 1.15x, and oversized segments degrade to
// the unpipelined case.
func TestFig4Shape(t *testing.T) {
	m := topology.IG()
	linear := KNEMCollCfg("linear", core.Config{Mode: core.ModeLinear})
	nopipe := KNEMCollCfg("nopipe", core.Config{Mode: core.ModeHierarchical, NoPipeline: true})
	pipe16K := KNEMCollCfg("16K", core.Config{Mode: core.ModeHierarchical, FixedSeg: 16 * KiB})
	pipe2M := KNEMCollCfg("2M", core.Config{Mode: core.ModeHierarchical, FixedSeg: 2 * MiB})

	const sz = 2 * MiB
	tLin := measure(t, m, linear, OpBcast, sz)
	tNoP := measure(t, m, nopipe, OpBcast, sz)
	t16K := measure(t, m, pipe16K, OpBcast, sz)
	wantFaster(t, "hierarchy over linear", tLin, tNoP, 1.8)
	wantFaster(t, "pipelining over no-pipeline", tNoP, t16K, 1.15)

	// A segment as large as the message degenerates to no pipeline.
	t2M512 := measure(t, m, pipe2M, OpBcast, 512*KiB)
	tNoP512 := measure(t, m, nopipe, OpBcast, 512*KiB)
	if ratio := t2M512 / tNoP512; ratio < 0.99 || ratio > 1.01 {
		t.Errorf("2MB segment at 512K = %.3fx of no-pipeline, want 1.0", ratio)
	}
}

// Fig. 5: the KNEM Broadcast beats the copy-in/copy-out baselines on every
// platform.
func TestFig5Shape(t *testing.T) {
	for _, m := range []*topology.Machine{topology.Zoot(), topology.Dancer(), topology.Saturn(), topology.IG()} {
		for _, sz := range []int64{64 * KiB, 1 * MiB} {
			knem := measure(t, m, KNEMColl(), OpBcast, sz)
			wantFaster(t, m.Name+" bcast vs Tuned-SM", measure(t, m, TunedSM(), OpBcast, sz), knem, 1.3)
			wantFaster(t, m.Name+" bcast vs MPICH2-SM", measure(t, m, MPICH2SM(), OpBcast, sz), knem, 1.3)
			// Against Tuned-KNEM the gain is smaller (and on some
			// machine/size points the simulated chain ties — see
			// EXPERIMENTS.md deviations); assert competitiveness.
			wantFaster(t, m.Name+" bcast vs Tuned-KNEM", measure(t, m, TunedKNEM(), OpBcast, sz), knem, 0.85)
		}
	}
}

// Fig. 6: the KNEM Gather "tremendously outperforms all other components
// in all cases" thanks to sender-writes direction control.
func TestFig6Shape(t *testing.T) {
	for _, m := range []*topology.Machine{topology.Zoot(), topology.Dancer(), topology.Saturn(), topology.IG()} {
		knem := measure(t, m, KNEMColl(), OpGather, 256*KiB)
		for _, c := range []Comp{TunedSM(), TunedKNEM(), MPICH2SM(), MPICH2KNEM()} {
			wantFaster(t, m.Name+" gather vs "+c.Name, measure(t, m, c, OpGather, 256*KiB), knem, 1.8)
		}
	}
}

// §VI-C: KNEM Scatter beats the copy-in/copy-out scatters severalfold
// (receiver-reads at offsets); against Tuned-KNEM, whose linear scatter
// already reads in parallel, it stays competitive.
func TestScatterShape(t *testing.T) {
	for _, m := range []*topology.Machine{topology.Zoot(), topology.IG()} {
		knem := measure(t, m, KNEMColl(), OpScatter, 256*KiB)
		wantFaster(t, m.Name+" scatter vs Tuned-SM", measure(t, m, TunedSM(), OpScatter, 256*KiB), knem, 1.8)
		wantFaster(t, m.Name+" scatter vs MPICH2-SM", measure(t, m, MPICH2SM(), OpScatter, 256*KiB), knem, 1.8)
		wantFaster(t, m.Name+" scatter vs Tuned-KNEM", measure(t, m, TunedKNEM(), OpScatter, 256*KiB), knem, 0.9)
	}
}

// Fig. 7: Alltoallv gains are significant against the shared-memory
// baselines but modest against Tuned-KNEM (§VI-D).
func TestFig7Shape(t *testing.T) {
	for _, m := range []*topology.Machine{topology.Dancer(), topology.IG()} {
		knem := measure(t, m, KNEMColl(), OpAlltoallv, 256*KiB)
		wantFaster(t, m.Name+" alltoallv vs Tuned-SM", measure(t, m, TunedSM(), OpAlltoallv, 256*KiB), knem, 1.3)
		tk := measure(t, m, TunedKNEM(), OpAlltoallv, 256*KiB)
		if ratio := tk / knem; ratio < 0.85 || ratio > 1.5 {
			t.Errorf("%s alltoallv vs Tuned-KNEM = %.2fx, want modest (0.85..1.5)", m.Name, ratio)
		}
	}
}

// Fig. 8: the Gather+Bcast Allgather wins on the small NUMA machines but
// loses to Tuned-KNEM's ring on IG (the paper's §VI-D analysis of the
// root-NUMA bottleneck).
func TestFig8Shape(t *testing.T) {
	const sz = 256 * KiB
	dancer := topology.Dancer()
	knem := measure(t, dancer, KNEMColl(), OpAllgather, sz)
	wantFaster(t, "Dancer allgather vs Tuned-SM", measure(t, dancer, TunedSM(), OpAllgather, sz), knem, 1.2)

	ig := topology.IG()
	knemIG := measure(t, ig, KNEMColl(), OpAllgather, sz)
	tkIG := measure(t, ig, TunedKNEM(), OpAllgather, sz)
	if tkIG >= knemIG {
		t.Errorf("IG allgather: Tuned-KNEM (%.0fus) should beat the Gather+Bcast composition (%.0fus)", tkIG*1e6, knemIG*1e6)
	}
	// But KNEM Allgather must stay at least close to the SM baselines.
	smIG := measure(t, ig, TunedSM(), OpAllgather, sz)
	if knemIG > smIG*1.15 {
		t.Errorf("IG allgather: KNEM (%.0fus) much worse than Tuned-SM (%.0fus)", knemIG*1e6, smIG*1e6)
	}
}

// Table I: the KNEM component spends far less time in Bcast than both
// baselines, and the total improvement is a modest single-digit-to-low
// fraction of runtime (compute dominates).
func TestTable1Shape(t *testing.T) {
	for _, job := range []struct {
		m *topology.Machine
		n int
	}{{topology.Zoot(), 16384}, {topology.IG(), 32768}} {
		res := Default.RunTable1(job.m, job.n, 64)
		knem := res.Rows[len(res.Rows)-1]
		for _, row := range res.Rows[:len(res.Rows)-1] {
			wantFaster(t, res.Machine+" ASP bcast vs "+row.Comp, row.Bcast, knem.Bcast, 1.8)
			if knem.Total >= row.Total {
				t.Errorf("%s: KNEM total %.0fs not best (vs %s %.0fs)", res.Machine, knem.Total, row.Comp, row.Total)
			}
		}
		if res.BcastImprovement < 30 {
			t.Errorf("%s: bcast improvement %.1f%%, want >= 30%%", res.Machine, res.BcastImprovement)
		}
		if res.TotalImprovement <= 0 || res.TotalImprovement > 35 {
			t.Errorf("%s: total improvement %.1f%%, want small positive", res.Machine, res.TotalImprovement)
		}
	}
}

// The benchmark harness itself: off-cache must not be slower than warm
// cache, max-over-ranks must dominate, and stats must accumulate.
func TestMeasureProtocol(t *testing.T) {
	m := topology.Dancer()
	warm, err := Default.Measure(Config{Machine: m, Comp: KNEMColl(), Op: OpBcast, Size: 1 * MiB, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Default.Measure(Config{Machine: m, Comp: KNEMColl(), Op: OpBcast, Size: 1 * MiB, Iters: 2, OffCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Seconds > cold.Seconds*1.001 {
		t.Errorf("warm (%g) slower than off-cache (%g)", warm.Seconds, cold.Seconds)
	}
	if cold.Stats.Copies == 0 || cold.Stats.Registrations == 0 {
		t.Errorf("stats not accumulated: %+v", cold.Stats)
	}
}

func TestPanelNormalization(t *testing.T) {
	p := Panel{
		Baseline: "b",
		Sizes:    []int64{1},
		Series: []Series{
			{Label: "a", Seconds: map[int64]float64{1: 2.0}},
			{Label: "b", Seconds: map[int64]float64{1: 4.0}},
		},
	}
	norm := p.Normalized()
	if norm[0].Seconds[1] != 0.5 || norm[1].Seconds[1] != 1.0 {
		t.Fatalf("normalized = %v", norm)
	}
	if p.Get("a").Seconds[1] != 2.0 {
		t.Fatal("Get failed")
	}
}

func TestAllOpsRunOnAllComponents(t *testing.T) {
	m := topology.Dancer()
	for _, c := range append(PaperComponents(), BasicSM(), SMColl()) {
		for _, op := range []Op{OpBcast, OpGather, OpScatter, OpAllgather, OpAlltoall, OpAlltoallv, OpBarrier} {
			if _, err := Default.Measure(Config{Machine: m, Comp: c, Op: op, Size: 64 * KiB, Iters: 1}); err != nil {
				t.Errorf("%s/%s: %v", c.Name, op, err)
			}
		}
	}
}

// §I / conclusion: the KNEM component scales better with core count than
// the copy-in/copy-out default — its cost from 2 to 48 ranks on IG grows
// by a much smaller factor.
func TestScalabilityShape(t *testing.T) {
	m := topology.IG()
	s := Default.RunScalability(m, OpBcast, 1*MiB, []int{2, 8, 48},
		[]Comp{TunedSM(), KNEMColl()}, 1)
	gTuned := s.Growth("Tuned-SM")
	gKnem := s.Growth("KNEM-Coll")
	if gKnem*2 > gTuned {
		t.Errorf("growth 2->48 ranks: KNEM-Coll %.1fx vs Tuned-SM %.1fx — expected at least 2x better scaling", gKnem, gTuned)
	}
	// And the component never loses at full occupancy.
	if s.Seconds["KNEM-Coll"][48] >= s.Seconds["Tuned-SM"][48] {
		t.Error("KNEM-Coll slower at 48 ranks")
	}
}
