// Alltoall schedule: visualize the rotated access pattern of the KNEM
// Alltoall (the paper's Figure 3) and measure what the rotation is worth
// against a naive schedule where every rank reads peers in rank order
// (everyone hammering sender 0, then sender 1, ...).
//
//	go run ./examples/alltoall_schedule
package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/topology"
)

func main() {
	// The schedule itself, for 4 processes as in Fig. 3: entry [r][k] is
	// the peer whose send buffer rank r reads at step k.
	const p = 4
	fmt.Println("Rotated KNEM Alltoall schedule (Fig. 3), 4 processes:")
	fmt.Println("step:      1  2  3")
	for r := 0; r < p; r++ {
		fmt.Printf("rank %d:   ", r)
		for k := 1; k < p; k++ {
			fmt.Printf("%2d ", (r+k)%p)
		}
		fmt.Println()
	}
	fmt.Println("\nAt every step each sender's memory is read by exactly one peer,")
	fmt.Println("so no send buffer's NUMA node ever serves two streams at once.")

	// Measure the real thing on Dancer: KNEM-Coll (rotated) vs the
	// linear Basic component (all pairs at once, no schedule) and the
	// pairwise Tuned-KNEM (synchronized rounds).
	m := topology.Dancer()
	const blk = 512 << 10
	fmt.Printf("\nAlltoall with %d KiB blocks on %s (%d ranks):\n", blk>>10, m.Name, m.NCores())
	for _, c := range []bench.Comp{bench.KNEMColl(), bench.TunedKNEM(), bench.BasicSM(), bench.TunedSM()} {
		res := bench.Default.MustMeasure(bench.Config{
			Machine: m, Comp: c, Op: bench.OpAlltoall, Size: blk, Iters: 2, OffCache: true,
		})
		fmt.Printf("  %-12s %9.1f us\n", c.Name, res.Seconds*1e6)
	}
}
