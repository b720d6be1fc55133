package search

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/tune"
)

// TestSearchDeterministicAcrossParallel pins the tuner's reproducibility
// contract: the same machine, grid, and seed emit a byte-identical table at
// any parallelism level.
func TestSearchDeterministicAcrossParallel(t *testing.T) {
	o := Options{
		Machine: topology.ByName("Zoot"),
		Ops:     []string{tune.OpBcast},
		Sizes:   []int64{64 << 10, 1 << 20},
	}
	encode := func(parallel int) []byte {
		run := bench.NewRunner()
		run.SetParallel(parallel)
		tb, err := Run(run, o)
		if err != nil {
			t.Fatalf("search at parallel=%d: %v", parallel, err)
		}
		var buf bytes.Buffer
		if err := tb.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := encode(1)
	par := encode(4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("table differs between parallel=1 and parallel=4:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

// TestTunedAtLeastAsFastAsDefaults is the acceptance guarantee: on every
// tuned cell, running with the decision table is at least as fast as the
// hardcoded default rules — first by construction in the recorded
// alternatives (defaults are never pruned), then end-to-end through the
// runtime Decider.
func TestTunedAtLeastAsFastAsDefaults(t *testing.T) {
	m := topology.ByName("Zoot")
	run := bench.NewRunner()
	tb, err := Run(run, Options{
		Machine: m,
		Sizes:   []int64{64 << 10, 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Construction invariant: each family's tuned best never loses to the
	// family default measured on the same cell.
	for _, c := range tb.Cells {
		for name, a := range map[string]*tune.Alt{
			"knem": c.Alts.Knem, "tuned_sm": c.Alts.TunedSM, "tuned_knem": c.Alts.TunedKNEM,
		} {
			if a == nil {
				continue
			}
			if a.Seconds > a.DefaultSeconds {
				t.Errorf("%s np=%d size=%d: %s tuned best %.3gs slower than its default %.3gs",
					c.Op, c.NP, c.Size, name, a.Seconds, a.DefaultSeconds)
			}
		}
	}

	// End-to-end: measure the default components with and without the
	// Decider on every cell. The comparison is emitted as a table (the
	// same shape `tune diff -defaults` renders) and asserted per cell.
	dec := tune.NewDecider(tb)
	t.Logf("%-10s %6s  %12s %12s", "op", "size", "decided", "default")
	for _, c := range tb.Cells {
		for _, comp := range []bench.Comp{bench.KNEMColl(), bench.TunedSM()} {
			cfg := bench.Config{
				Machine: m, NP: c.NP, Comp: comp, Op: bench.Op(c.Op),
				Size: c.Size, Iters: 1, OffCache: true,
			}
			def := run.MustMeasure(cfg)
			cfg.Decider = dec
			got := run.MustMeasure(cfg)
			t.Logf("%-10s %6d  %10.1fus %10.1fus  %s", c.Op, c.Size,
				got.Seconds*1e6, def.Seconds*1e6, comp.Name)
			if got.Seconds > def.Seconds*(1+1e-9) {
				t.Errorf("%s %s np=%d size=%d: decided %.4gs slower than default %.4gs",
					comp.Name, c.Op, c.NP, c.Size, got.Seconds, def.Seconds)
			}
		}
	}
}

// TestFig4SegmentOptimaIG reproduces the paper's Fig. 4 tuning result on
// the simulated IG: among the swept pipeline segments, 16 KiB is the
// optimum for the hierarchical Broadcast below 2 MiB (strictly beating the
// 512 KiB the paper selects for large messages), and at 2 MiB and above the
// paper's 512 KiB stays within a bounded margin of the simulated best (the
// simulator's contention model keeps rewarding small segments at sizes
// where the real IG's cache hierarchy favoured 512 KiB; EXPERIMENTS.md
// records the deviation).
func TestFig4SegmentOptimaIG(t *testing.T) {
	m := topology.ByName("IG")
	segs := SegCandidates()
	sizes := bench.Fig4Sizes()
	var cfgs []bench.Config
	for _, seg := range segs {
		comp := bench.KNEMCollCfg(fmt.Sprintf("seg=%d", seg),
			core.Config{Mode: core.ModeHierarchical, FixedSeg: seg})
		for _, sz := range sizes {
			cfgs = append(cfgs, bench.Config{
				Machine: m, Comp: comp, Op: bench.OpBcast,
				Size: sz, Iters: 1, OffCache: true,
			})
		}
	}
	res := bench.NewRunner().MeasureAll(cfgs)
	timeOf := func(si, zi int) float64 { return res[si*len(sizes)+zi].Seconds }
	segIdx := func(want int64) int {
		for i, s := range segs {
			if s == want {
				return i
			}
		}
		t.Fatalf("segment %d not in SegCandidates", want)
		return -1
	}
	i16, i512 := segIdx(16<<10), segIdx(512<<10)
	for zi, sz := range sizes {
		best := 0
		for si := range segs {
			if timeOf(si, zi) < timeOf(best, zi) {
				best = si
			}
		}
		t.Logf("size=%-8d best seg=%-7d 16K=%.1fus 512K=%.1fus", sz, segs[best],
			timeOf(i16, zi)*1e6, timeOf(i512, zi)*1e6)
		if sz < 2<<20 {
			if segs[best] != 16<<10 {
				t.Errorf("size=%d: best segment %d, paper tunes 16K below 2M", sz, segs[best])
			}
			if timeOf(i16, zi) >= timeOf(i512, zi) {
				t.Errorf("size=%d: 16K segments (%.4gs) do not beat 512K (%.4gs)",
					sz, timeOf(i16, zi), timeOf(i512, zi))
			}
		} else if timeOf(i512, zi) > timeOf(best, zi)*1.10 {
			t.Errorf("size=%d: paper's 512K segment %.4gs more than 10%% off the best %.4gs",
				sz, timeOf(i512, zi), timeOf(best, zi))
		}
	}
}

// TestSearchRejectsBadGrids covers option validation.
func TestSearchRejectsBadGrids(t *testing.T) {
	m := topology.ByName("Zoot")
	for _, o := range []Options{
		{},
		{Machine: m, Ops: []string{"reduce"}},
		{Machine: m, Ops: []string{"alltoallv"}},
		{Machine: m, NPs: []int{0}},
		{Machine: m, NPs: []int{m.NCores() + 1}},
		{Machine: m, Sizes: []int64{0}},
	} {
		if _, err := Run(bench.NewRunner(), o); err == nil {
			t.Errorf("Run(%+v) accepted, want error", o)
		}
	}
}
