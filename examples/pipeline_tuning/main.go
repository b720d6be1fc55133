// Pipeline tuning: explore the segment-size trade-off of the hierarchical
// pipelined KNEM Broadcast on IG, the experiment behind the paper's
// Figure 4. Too small a segment pays per-segment kernel and signalling
// overhead; too large a segment loses the overlap between the
// leader-from-root transfers and the leaf-from-leader copies.
//
//	go run ./examples/pipeline_tuning
package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/topology"
)

func main() {
	mach := "IG"
	m := topology.ByName(mach)
	sizes := []int64{512 << 10, 2 << 20, 8 << 20}
	segs := []int64{4 << 10, 16 << 10, 64 << 10, 512 << 10, 2 << 20}

	fmt.Printf("Hierarchical pipelined Broadcast on %s (48 ranks), normalized to no-pipeline (lower is better)\n\n", mach)
	fmt.Printf("%10s %12s %12s", "message", "linear", "no-pipe")
	for _, s := range segs {
		fmt.Printf(" %9s", label(s))
	}
	fmt.Println()

	for _, sz := range sizes {
		base := measure(m, core.Config{Mode: core.ModeHierarchical, NoPipeline: true}, sz)
		lin := measure(m, core.Config{Mode: core.ModeLinear}, sz)
		fmt.Printf("%10s %11.2fx %11.2fx", label(sz), lin/base, 1.0)
		best := ""
		bestV := 1e18
		for _, s := range segs {
			v := measure(m, core.Config{Mode: core.ModeHierarchical, FixedSeg: s}, sz)
			if v < bestV {
				bestV, best = v, label(s)
			}
			fmt.Printf(" %8.2fx", v/base)
		}
		fmt.Printf("   best: %s\n", best)
	}
	fmt.Println("\nThe paper settles on 16KB segments for intermediate messages and 512KB for")
	fmt.Println("large ones (>= 2MB); those are the defaults of core.Config.")
}

func measure(m *topology.Machine, cfg core.Config, size int64) float64 {
	res := bench.Default.MustMeasure(bench.Config{
		Machine: m, Comp: bench.KNEMCollCfg("x", cfg),
		Op: bench.OpBcast, Size: size, Iters: 2, OffCache: true,
	})
	return res.Seconds
}

func label(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMB", n>>20)
	}
	return fmt.Sprintf("%dKB", n>>10)
}
