package repro

// One benchmark per table and figure of the paper's evaluation (§VI).
// Each sub-benchmark runs the full simulated measurement (an IMB-style
// off-cache timing on the named machine) and reports the simulated
// operation latency as sim_us/op next to the usual wall-clock ns/op; the
// wall-clock time is the cost of running the simulator, the simulated time
// is the reproduced datum.
//
//	go test -bench=. -benchmem
//
// cmd/imb and cmd/asp print the same data as normalized tables in the
// paper's format.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/topology"
)

func machines() []*topology.Machine {
	return []*topology.Machine{topology.Zoot(), topology.Dancer(), topology.Saturn(), topology.IG()}
}

func benchOp(b *testing.B, op bench.Op, sizes []int64) {
	b.Helper()
	for _, m := range machines() {
		for _, c := range bench.PaperComponents() {
			for _, sz := range sizes {
				name := fmt.Sprintf("%s/%s/%s", m.Name, c.Name, sizeLabel(sz))
				b.Run(name, func(b *testing.B) {
					var sim float64
					for i := 0; i < b.N; i++ {
						res := bench.Default.MustMeasure(bench.Config{
							Machine: m, Comp: c, Op: op, Size: sz, Iters: 1, OffCache: true,
						})
						sim = res.Seconds
					}
					b.ReportMetric(sim*1e6, "sim_us/op")
				})
			}
		}
	}
}

func sizeLabel(sz int64) string {
	if sz >= 1<<20 {
		return fmt.Sprintf("%dM", sz>>20)
	}
	return fmt.Sprintf("%dK", sz>>10)
}

// BenchmarkFig4 regenerates Figure 4: pipeline-size tuning of the
// hierarchical pipelined Broadcast on IG (linear baseline, unpipelined
// hierarchy, and representative segment sizes).
func BenchmarkFig4(b *testing.B) {
	m := topology.IG()
	comps := []bench.Comp{
		bench.KNEMCollCfg("linear", core.Config{Mode: core.ModeLinear}),
		bench.KNEMCollCfg("no-pipeline", core.Config{Mode: core.ModeHierarchical, NoPipeline: true}),
		bench.KNEMCollCfg("seg4K", core.Config{Mode: core.ModeHierarchical, FixedSeg: 4 << 10}),
		bench.KNEMCollCfg("seg16K", core.Config{Mode: core.ModeHierarchical, FixedSeg: 16 << 10}),
		bench.KNEMCollCfg("seg512K", core.Config{Mode: core.ModeHierarchical, FixedSeg: 512 << 10}),
		bench.KNEMCollCfg("seg2M", core.Config{Mode: core.ModeHierarchical, FixedSeg: 2 << 20}),
	}
	for _, c := range comps {
		for _, sz := range []int64{512 << 10, 2 << 20, 8 << 20} {
			b.Run(fmt.Sprintf("%s/%s", c.Name, sizeLabel(sz)), func(b *testing.B) {
				var sim float64
				for i := 0; i < b.N; i++ {
					res := bench.Default.MustMeasure(bench.Config{
						Machine: m, Comp: c, Op: bench.OpBcast, Size: sz, Iters: 1, OffCache: true,
					})
					sim = res.Seconds
				}
				b.ReportMetric(sim*1e6, "sim_us/op")
			})
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: Broadcast on all four platforms.
func BenchmarkFig5(b *testing.B) {
	benchOp(b, bench.OpBcast, []int64{64 << 10, 1 << 20, 8 << 20})
}

// BenchmarkFig6 regenerates Figure 6: Gather on all four platforms.
func BenchmarkFig6(b *testing.B) {
	benchOp(b, bench.OpGather, []int64{64 << 10, 1 << 20})
}

// BenchmarkScatter regenerates the §VI-C Scatter comparison.
func BenchmarkScatter(b *testing.B) {
	benchOp(b, bench.OpScatter, []int64{64 << 10, 1 << 20})
}

// BenchmarkFig7 regenerates Figure 7: Alltoallv on all four platforms.
func BenchmarkFig7(b *testing.B) {
	benchOp(b, bench.OpAlltoallv, []int64{64 << 10, 256 << 10})
}

// BenchmarkFig8 regenerates Figure 8: Allgather on all four platforms.
func BenchmarkFig8(b *testing.B) {
	benchOp(b, bench.OpAllgather, []int64{64 << 10, 256 << 10})
}

// BenchmarkTable1 regenerates Table I: the ASP application's Bcast and
// total time under Open MPI, MPICH2, and KNEM-Coll, on Zoot and IG.
func BenchmarkTable1(b *testing.B) {
	for _, job := range []struct {
		m *topology.Machine
		n int
	}{{topology.Zoot(), 16384}, {topology.IG(), 32768}} {
		b.Run(job.m.Name, func(b *testing.B) {
			var res bench.Table1Result
			for i := 0; i < b.N; i++ {
				res = bench.Default.RunTable1(job.m, job.n, 48)
			}
			knem := res.Rows[len(res.Rows)-1]
			b.ReportMetric(knem.Bcast, "sim_bcast_s")
			b.ReportMetric(knem.Total, "sim_total_s")
			b.ReportMetric(res.BcastImprovement, "bcast_improvement_%")
		})
	}
}

// BenchmarkRingAllgatherAblation measures the §VI-D "next release" fix:
// the ring-style KNEM Allgather against the paper's Gather+Bcast
// composition on the large NUMA node.
func BenchmarkRingAllgatherAblation(b *testing.B) {
	m := topology.IG()
	for _, c := range []bench.Comp{
		bench.KNEMCollCfg("gather+bcast", core.Config{}),
		bench.KNEMCollCfg("ring", core.Config{RingAllgather: true}),
	} {
		b.Run(c.Name, func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				res := bench.Default.MustMeasure(bench.Config{
					Machine: m, Comp: c, Op: bench.OpAllgather, Size: 256 << 10, Iters: 1, OffCache: true,
				})
				sim = res.Seconds
			}
			b.ReportMetric(sim*1e6, "sim_us/op")
		})
	}
}

// BenchmarkScalability measures the §I scaling claim: Broadcast cost
// versus rank count on IG for the default Open MPI stack and KNEM-Coll.
func BenchmarkScalability(b *testing.B) {
	m := topology.IG()
	for _, c := range []bench.Comp{bench.TunedSM(), bench.KNEMColl()} {
		for _, np := range []int{8, 24, 48} {
			b.Run(fmt.Sprintf("%s/np%d", c.Name, np), func(b *testing.B) {
				var sim float64
				for i := 0; i < b.N; i++ {
					res := bench.Default.MustMeasure(bench.Config{
						Machine: m, NP: np, Comp: c, Op: bench.OpBcast,
						Size: 1 << 20, Iters: 1, OffCache: true,
					})
					sim = res.Seconds
				}
				b.ReportMetric(sim*1e6, "sim_us/op")
			})
		}
	}
}
