package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/coll/hier"
	"repro/internal/fault"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/trace"
)

// pinCase is one KNEM collective run three times under a fault plan.
type pinCase struct {
	name string
	mach func() *topology.Machine
	np   int
	cfg  Config
	op   func(r *mpi.Rank, it int)
}

func pinBcast(size int64) func(r *mpi.Rank, it int) {
	return func(r *mpi.Rank, it int) {
		r.Bcast(r.Alloc(size).Whole(), it%r.Size())
	}
}

func pinCases() []pinCase {
	const seg = 16 << 10
	return []pinCase{
		{"bcast-linear", topology.Dancer, 8, Config{Mode: ModeLinear, FixedSeg: seg}, pinBcast(96 << 10)},
		{"bcast-hierarchical", topology.Dancer, 8, Config{Mode: ModeHierarchical, FixedSeg: seg}, pinBcast(96 << 10)},
		{"bcast-multilevel", topology.IG, 24, Config{Mode: ModeMultiLevel, FixedSeg: seg}, pinBcast(96 << 10)},
		{"bcast-linear-lazy", topology.Dancer, 8, Config{Mode: ModeLinear, LazySync: true}, pinBcast(96 << 10)},
		{"scatter", topology.Dancer, 8, Config{}, func(r *mpi.Rank, it int) {
			const blk = 40 << 10
			var send memsim.View
			if root := it % r.Size(); r.ID() == root {
				send = r.Alloc(int64(r.Size()) * blk).Whole()
			}
			r.Scatter(send, r.Alloc(blk).Whole(), it%r.Size())
		}},
		{"gather", topology.Dancer, 8, Config{}, func(r *mpi.Rank, it int) {
			const blk = 40 << 10
			var recv memsim.View
			if root := it % r.Size(); r.ID() == root {
				recv = r.Alloc(int64(r.Size()) * blk).Whole()
			}
			r.Gather(r.Alloc(blk).Whole(), recv, it%r.Size())
		}},
		{"alltoall", topology.Dancer, 8, Config{}, pinAlltoall},
		{"alltoall-dma", dmaMachine, 8, Config{DMADepth: 4}, pinAlltoall},
		{"allgather-ring", topology.Dancer, 8, Config{RingAllgather: true}, pinAllgather},
		{"allgather-composite", topology.Dancer, 8, Config{}, pinAllgather},
	}
}

func pinAlltoall(r *mpi.Rank, _ int) {
	const blk = 32 << 10
	p := int64(r.Size())
	r.Alltoall(r.Alloc(p*blk).Whole(), r.Alloc(p*blk).Whole())
}

func pinAllgather(r *mpi.Rank, _ int) {
	const blk = 32 << 10
	r.Allgather(r.Alloc(blk).Whole(), r.Alloc(int64(r.Size())*blk).Whole())
}

// pinPlans mix registration failures, invalidations, transient copy and
// create failures and DMA faults under fixed seeds.
func pinPlans() []fault.Plan {
	return []fault.Plan{
		{Seed: 11, CreateFailEvery: 3, InvalidateEvery: 4},
		{Seed: 12, CopyTransient: 0.3, CreateTransient: 0.15, InvalidateEvery: 6, MaxRetries: 2},
		{Seed: 13, CreateFailEvery: 5, CopyTransient: 0.2, InvalidateEvery: 9, DMAFailEvery: 3, DMAStallEvery: 2},
	}
}

// faultRun is what a fault run leaves behind: its final virtual time, its
// counters, and the ordered "faults"-lane events (kind and detail).
type faultRun struct {
	end    float64
	stats  string
	events []string
}

func runPinned(t *testing.T, pc pinCase, plan fault.Plan) faultRun {
	t.Helper()
	tl := &trace.Timeline{}
	var comp *Component
	end, w, err := mpi.Run(mpi.Options{
		Machine: pc.mach(), NP: pc.np, BTL: mpi.BTLSM, Fault: &plan, Timeline: tl,
		Coll: func(w *mpi.World) mpi.Coll {
			comp = NewWithConfig(w, pc.cfg).(*Component)
			return comp
		},
	}, func(r *mpi.Rank) {
		for it := 0; it < 3; it++ {
			pc.op(r, it)
		}
		comp.FlushPending(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.Knem().ActiveRegions(); n != 0 {
		t.Errorf("%d regions leaked", n)
	}
	run := faultRun{end: end, stats: w.Stats().String()}
	for _, s := range tl.Spans {
		if s.Lane == "faults" {
			run.events = append(run.events, s.Kind+" "+s.Detail)
		}
	}
	return run
}

// faultPin is the pinned outcome of one case under one plan. The event
// list is pinned by its length and FNV-1a hash; a mismatch prints it.
type faultPin struct {
	endBits uint64
	stats   string
	nEvents int
	events  uint64
}

func (run faultRun) pin() faultPin {
	h := fnv.New64a()
	for _, e := range run.events {
		h.Write([]byte(e))
		h.Write([]byte{'\n'})
	}
	return faultPin{math.Float64bits(run.end), run.stats, len(run.events), h.Sum64()}
}

// faultPins holds the outcomes recorded from the twin-protocol code
// (separate fault-tolerant copies of every KNEM protocol), before the
// protocols were written once with inline degradation. Fault runs are never
// memoized, so nothing else guards their timing: a change here is a change
// in fault behaviour, not a refactor.
var faultPins = map[string]faultPin{
	"bcast-linear/plan0":        {0x3f384eb1d252c6e1, "copies=111 bytes=3833856 cacheHits=63 cacheMisses=48 traps=19 regs=2 ctrl=207 faults=4 createFaults=1 copyFaults=3 dmaFaults=0 invalidations=2 retries=0 fallbacks=1 resends=11 cache0=2752512 cache1=589824 core0=589824 core1=884736 core2=393216 core3=491520 core4=491520 core5=393216 core6=294912 core7=294912 mem0=2162688 mem1=3440640 qpi=2555904", 16, 0x410a55f71286456a},
	"bcast-linear/plan1":        {0x3f3efd5460ec98c9, "copies=111 bytes=3833856 cacheHits=78 cacheMisses=33 traps=37 regs=3 ctrl=186 faults=16 createFaults=1 copyFaults=15 dmaFaults=0 invalidations=3 retries=10 fallbacks=0 resends=18 cache0=3244032 cache1=196608 core0=786432 core1=688128 core2=884736 core3=294912 core4=294912 core5=294912 core6=294912 core7=294912 mem0=2162688 mem1=2949120 qpi=2260992", 34, 0xe5cf6fca0e8e5be7},
	"bcast-linear/plan2":        {0x3f30a262953d3fb0, "copies=51 bytes=2654208 cacheHits=25 cacheMisses=26 traps=33 regs=3 ctrl=90 faults=9 createFaults=0 copyFaults=9 dmaFaults=0 invalidations=2 retries=6 fallbacks=0 resends=6 cache0=1179648 cache1=98304 core0=294912 core1=196608 core2=688128 core3=294912 core4=294912 core5=294912 core6=294912 core7=294912 mem0=2457600 mem1=1966080 qpi=1474560", 15, 0x4f0fe93fa2f7d389},
	"bcast-hierarchical/plan0":  {0x3f37d4bea0d54bcb, "copies=110 bytes=3670016 cacheHits=73 cacheMisses=37 traps=27 regs=4 ctrl=235 faults=5 createFaults=1 copyFaults=4 dmaFaults=0 invalidations=4 retries=0 fallbacks=1 resends=10 cache0=1867776 cache1=1032192 core0=294912 core1=393216 core2=688128 core3=491520 core4=917504 core5=294912 core6=294912 core7=294912 mem0=1966080 mem1=3162112 qpi=1376256", 16, 0xe4091a1bcd97c05e},
	"bcast-hierarchical/plan1":  {0x3f38f994addcbb2f, "copies=98 bytes=3473408 cacheHits=79 cacheMisses=19 traps=48 regs=6 ctrl=214 faults=18 createFaults=0 copyFaults=18 dmaFaults=0 invalidations=6 retries=11 fallbacks=0 resends=15 cache0=1130496 cache1=1687552 core0=491520 core1=393216 core2=245760 core3=294912 core4=1163264 core5=294912 core6=294912 core7=294912 mem0=1769472 mem1=2605056 qpi=540672", 33, 0xfae4ed8ca324474a},
	"bcast-hierarchical/plan2":  {0x3f3570576542978e, "copies=106 bytes=3112960 cacheHits=75 cacheMisses=31 traps=49 regs=5 ctrl=213 faults=12 createFaults=1 copyFaults=11 dmaFaults=0 invalidations=4 retries=7 fallbacks=1 resends=9 cache0=786432 cache1=1622016 core0=196608 core1=393216 core2=294912 core3=294912 core4=1048576 core5=294912 core6=294912 core7=294912 mem0=1671168 mem1=2342912 qpi=491520", 22, 0xd098228597d5123e},
	"bcast-multilevel/plan0":    {0x3f51b277fe9f3e15, "copies=452 bytes=12845056 cacheHits=303 cacheMisses=149 traps=59 regs=6 ctrl=1027 faults=14 createFaults=3 copyFaults=11 dmaFaults=0 invalidations=6 retries=0 fallbacks=3 resends=30 cache0=3538944 cache1=4014080 cache2=1818624 cache3=1654784 core0=688128 core1=688128 core10=491520 core11=491520 core12=1474560 core13=393216 core14=294912 core15=294912 core16=294912 core17=294912 core18=1245184 core19=294912 core2=393216 core20=294912 core21=294912 core22=294912 core23=294912 core3=491520 core4=491520 core5=491520 core6=1376256 core7=491520 core8=491520 core9=491520 ht=4915200 mem0=3145728 mem1=4341760 mem2=5062656 mem3=4571136", 47, 0x292c0f0ddbf13c2e},
	"bcast-multilevel/plan1":    {0x3f52f8ae48512f08, "copies=400 bytes=12713984 cacheHits=340 cacheMisses=60 traps=138 regs=12 ctrl=981 faults=50 createFaults=0 copyFaults=50 dmaFaults=0 invalidations=12 retries=29 fallbacks=0 resends=63 cache0=3637248 cache1=2670592 cache2=2408448 cache3=2981888 core0=786432 core1=786432 core10=294912 core11=294912 core12=1671168 core13=294912 core14=294912 core15=294912 core16=294912 core17=294912 core18=1703936 core19=294912 core2=786432 core20=294912 core21=294912 core22=294912 core23=294912 core3=294912 core4=294912 core5=294912 core6=1671168 core7=294912 core8=294912 core9=294912 ht=1769472 mem0=2850816 mem1=3915776 mem2=4177920 mem3=3670016", 113, 0xd447071d3280a7a1},
	"bcast-multilevel/plan2":    {0x3f50b373a16a4755, "copies=388 bytes=12632064 cacheHits=297 cacheMisses=91 traps=94 regs=8 ctrl=923 faults=25 createFaults=1 copyFaults=24 dmaFaults=0 invalidations=8 retries=16 fallbacks=1 resends=39 cache0=3768320 cache1=3981312 cache2=2113536 cache3=1949696 core0=557056 core1=393216 core10=491520 core11=491520 core12=1327104 core13=294912 core14=294912 core15=294912 core16=294912 core17=294912 core18=1261568 core19=294912 core2=884736 core20=294912 core21=294912 core22=294912 core23=294912 core3=491520 core4=491520 core5=491520 core6=1327104 core7=491520 core8=491520 core9=491520 ht=4882432 mem0=2981888 mem1=4341760 mem2=4276224 mem3=4276224", 65, 0x6362545c24e48e0d},
	"bcast-linear-lazy/plan0":   {0x3f384eb1d252c6e1, "copies=111 bytes=3833856 cacheHits=63 cacheMisses=48 traps=19 regs=2 ctrl=207 faults=4 createFaults=1 copyFaults=3 dmaFaults=0 invalidations=2 retries=0 fallbacks=1 resends=11 cache0=2752512 cache1=589824 core0=589824 core1=884736 core2=393216 core3=491520 core4=491520 core5=393216 core6=294912 core7=294912 mem0=2162688 mem1=3440640 qpi=2555904", 16, 0x410a55f71286456a},
	"bcast-linear-lazy/plan1":   {0x3f3efd5460ec98c9, "copies=111 bytes=3833856 cacheHits=78 cacheMisses=33 traps=37 regs=3 ctrl=186 faults=16 createFaults=1 copyFaults=15 dmaFaults=0 invalidations=3 retries=10 fallbacks=0 resends=18 cache0=3244032 cache1=196608 core0=786432 core1=688128 core2=884736 core3=294912 core4=294912 core5=294912 core6=294912 core7=294912 mem0=2162688 mem1=2949120 qpi=2260992", 34, 0xe5cf6fca0e8e5be7},
	"bcast-linear-lazy/plan2":   {0x3f30a262953d3fb0, "copies=51 bytes=2654208 cacheHits=25 cacheMisses=26 traps=33 regs=3 ctrl=90 faults=9 createFaults=0 copyFaults=9 dmaFaults=0 invalidations=2 retries=6 fallbacks=0 resends=6 cache0=1179648 cache1=98304 core0=294912 core1=196608 core2=688128 core3=294912 core4=294912 core5=294912 core6=294912 core7=294912 mem0=2457600 mem1=1966080 qpi=1474560", 15, 0x4f0fe93fa2f7d389},
	"scatter/plan0":             {0x3f280529599544af, "copies=78 bytes=1720320 cacheHits=12 cacheMisses=66 traps=19 regs=2 ctrl=143 faults=4 createFaults=1 copyFaults=3 dmaFaults=0 invalidations=2 retries=0 fallbacks=1 resends=11 cache0=737280 core0=286720 core1=409600 core2=409600 core3=122880 core4=122880 core5=122880 core6=122880 core7=122880 mem0=1720320 mem1=1474560 qpi=983040", 16, 0x43a6916717ce4030},
	"scatter/plan1":             {0x3f2cec8bc925633a, "copies=78 bytes=1720320 cacheHits=18 cacheMisses=60 traps=37 regs=3 ctrl=150 faults=16 createFaults=1 copyFaults=15 dmaFaults=0 invalidations=3 retries=10 fallbacks=0 resends=18 cache0=737280 core0=368640 core1=327680 core2=409600 core3=122880 core4=122880 core5=122880 core6=122880 core7=122880 mem0=1843200 mem1=1228800 qpi=860160", 34, 0x4afcd8600165383d},
	"scatter/plan2":             {0x3f2306810c98fea5, "copies=45 bytes=1269760 cacheHits=4 cacheMisses=41 traps=33 regs=3 ctrl=84 faults=9 createFaults=0 copyFaults=9 dmaFaults=0 invalidations=2 retries=6 fallbacks=0 resends=7 cache0=286720 core0=163840 core1=122880 core2=368640 core3=122880 core4=122880 core5=122880 core6=122880 core7=122880 mem0=1556480 mem1=901120 qpi=696320", 16, 0x26a04d0ac548d148},
	"gather/plan0":              {0x3f2f4165f346559a, "copies=78 bytes=1720320 cacheHits=12 cacheMisses=66 traps=19 regs=2 ctrl=143 faults=4 createFaults=1 copyFaults=3 dmaFaults=0 invalidations=2 retries=0 fallbacks=1 resends=11 cache0=245760 cache1=491520 core0=286720 core1=409600 core2=409600 core3=122880 core4=122880 core5=122880 core6=122880 core7=122880 mem0=2703360 mem1=491520 qpi=983040", 16, 0xd49b6b61693b7c20},
	"gather/plan1":              {0x3f355918bc108d71, "copies=78 bytes=1720320 cacheHits=18 cacheMisses=60 traps=37 regs=3 ctrl=150 faults=16 createFaults=1 copyFaults=15 dmaFaults=0 invalidations=3 retries=10 fallbacks=0 resends=18 cache0=368640 cache1=368640 core0=368640 core1=327680 core2=409600 core3=122880 core4=122880 core5=122880 core6=122880 core7=122880 mem0=2580480 mem1=491520 qpi=860160", 34, 0x32a917ca9c37f165},
	"gather/plan2":              {0x3f26d4aa082df620, "copies=42 bytes=1228800 cacheHits=4 cacheMisses=38 traps=33 regs=3 ctrl=78 faults=9 createFaults=0 copyFaults=9 dmaFaults=0 invalidations=2 retries=6 fallbacks=0 resends=6 cache0=81920 cache1=163840 core0=163840 core1=122880 core2=327680 core3=122880 core4=122880 core5=122880 core6=122880 core7=122880 mem0=1884160 mem1=491520 qpi=655360", 15, 0x7d99d54f328fc4e1},
	"alltoall/plan0":            {0x3f460c8b5dff6091, "copies=320 bytes=10485760 cacheHits=54 cacheMisses=266 traps=152 regs=16 ctrl=792 faults=36 createFaults=8 copyFaults=28 dmaFaults=0 invalidations=15 retries=0 fallbacks=8 resends=72 cache0=2097152 cache1=2097152 core0=1474560 core1=1245184 core2=1179648 core3=1343488 core4=1277952 core5=1376256 core6=1179648 core7=1409024 mem0=9601024 mem1=9601024 qpi=5570560", 116, 0x60c0931b10af9785},
	"alltoall/plan1":            {0x3f44b2c8198de511, "copies=284 bytes=9306112 cacheHits=41 cacheMisses=243 traps=276 regs=24 ctrl=704 faults=99 createFaults=3 copyFaults=96 dmaFaults=0 invalidations=19 retries=60 fallbacks=0 resends=92 cache0=1835008 cache1=1179648 core0=1409024 core1=1277952 core2=1114112 core3=1179648 core4=1245184 core5=1015808 core6=1245184 core7=819200 mem0=8224768 mem1=9043968 qpi=4816896", 191, 0x21419b3d178ea0d0},
	"alltoall/plan2":            {0x3f44ac00409717b8, "copies=276 bytes=9043968 cacheHits=35 cacheMisses=241 traps=218 regs=20 ctrl=644 faults=57 createFaults=4 copyFaults=53 dmaFaults=0 invalidations=12 retries=34 fallbacks=4 resends=56 cache0=1081344 cache1=1671168 core0=1048576 core1=1015808 core2=1212416 core3=950272 core4=1245184 core5=1114112 core6=1212416 core7=1245184 mem0=8617984 mem1=8323072 qpi=4751360", 117, 0x5b87dd2d2fe64beb},
	"alltoall-dma/plan0":        {0x3f445b0d5aab94db, "copies=248 bytes=8126464 cacheHits=24 cacheMisses=224 traps=152 regs=16 ctrl=504 faults=8 createFaults=8 copyFaults=0 dmaFaults=0 invalidations=0 retries=0 fallbacks=8 resends=0 cache0=917504 cache1=917504 core0=360448 core1=753664 core2=557056 core3=557056 core4=557056 core5=950272 core6=360448 core7=360448 dma0=1835008 dma1=1835008 link=4194304 mem0=7733248 mem1=7733248", 16, 0x60cdedcc3bc07534},
	"alltoall-dma/plan1":        {0x3f414f07a9c5ae97, "copies=192 bytes=6291456 cacheHits=0 cacheMisses=192 traps=221 regs=24 ctrl=336 faults=5 createFaults=5 copyFaults=0 dmaFaults=0 invalidations=0 retries=5 fallbacks=0 resends=0 core0=98304 core1=98304 core2=98304 core3=98304 core4=98304 core5=98304 core6=98304 core7=98304 dma0=2752512 dma1=2752512 link=3145728 mem0=6291456 mem1=6291456", 5, 0xbd57635461092c6c},
	"alltoall-dma/plan2":        {0x3f431aebec564d8c, "copies=244 bytes=7995392 cacheHits=24 cacheMisses=220 traps=242 regs=20 ctrl=516 faults=115 createFaults=4 copyFaults=18 dmaFaults=93 invalidations=6 retries=12 fallbacks=50 resends=24 cache0=1146880 cache1=557056 core0=851968 core1=851968 core2=753664 core3=425984 core4=786432 core5=753664 core6=491520 core7=425984 dma0=1409024 dma1=1245184 link=4063232 mem0=7405568 mem1=7798784", 189, 0xb0ccd3a3251085b},
	"allgather-ring/plan0":      {0x3f42cbfb653c79f6, "copies=318 bytes=10420224 cacheHits=111 cacheMisses=207 traps=95 regs=16 ctrl=822 faults=21 createFaults=8 copyFaults=13 dmaFaults=0 invalidations=13 retries=0 fallbacks=8 resends=126 cache0=2949120 cache1=3964928 core0=983040 core1=1245184 core2=1343488 core3=1343488 core4=1474560 core5=1441792 core6=1179648 core7=1409024 mem0=7503872 mem1=7602176 qpi=1900544", 155, 0xb82624ff593faa89},
	"allgather-ring/plan1":      {0x3f4200558d040564, "copies=293 bytes=9601024 cacheHits=102 cacheMisses=191 traps=165 regs=24 ctrl=697 faults=50 createFaults=1 copyFaults=49 dmaFaults=0 invalidations=19 retries=29 fallbacks=0 resends=101 cache0=2555904 cache1=2719744 core0=1277952 core1=1212416 core2=1081344 core3=1179648 core4=1277952 core5=1474560 core6=1114112 core7=983040 mem0=7143424 mem1=7438336 qpi=1835008", 151, 0xb285e455b55132d8},
	"allgather-ring/plan2":      {0x3f42d81f86b807f1, "copies=281 bytes=9207808 cacheHits=87 cacheMisses=194 traps=161 regs=20 ctrl=637 faults=42 createFaults=4 copyFaults=38 dmaFaults=0 invalidations=13 retries=25 fallbacks=4 resends=89 cache0=2326528 cache1=2228224 core0=1179648 core1=1212416 core2=1245184 core3=950272 core4=1015808 core5=1245184 core6=1048576 core7=1310720 mem0=7536640 mem1=7077888 qpi=1802240", 135, 0x5d5ad8560835d6b},
	"allgather-composite/plan0": {0x3f58ab7fdf1c6ec5, "copies=476 bytes=11567104 cacheHits=287 cacheMisses=189 traps=48 regs=6 ctrl=881 faults=11 createFaults=3 copyFaults=8 dmaFaults=0 invalidations=6 retries=0 fallbacks=3 resends=26 cache0=6193152 cache1=3293184 core0=3014656 core1=884736 core2=884736 core3=884736 core4=3244032 core5=884736 core6=884736 core7=884736 mem0=6062080 mem1=8765440 qpi=1835008", 40, 0x7194806b304744b6},
	"allgather-composite/plan1": {0x3f57aec6e66ceff3, "copies=334 bytes=11419648 cacheHits=267 cacheMisses=67 traps=90 regs=9 ctrl=612 faults=35 createFaults=3 copyFaults=32 dmaFaults=0 invalidations=9 retries=23 fallbacks=0 resends=34 cache0=6029312 cache1=6406144 core0=2981888 core1=884736 core2=884736 core3=884736 core4=3129344 core5=884736 core6=884736 core7=884736 mem0=6160384 mem1=5390336 qpi=1802240", 69, 0x2ab6b67c9cc6cd29},
	"allgather-composite/plan2": {0x3f549252c97daba7, "copies=330 bytes=11141120 cacheHits=234 cacheMisses=96 traps=80 regs=7 ctrl=631 faults=20 createFaults=1 copyFaults=19 dmaFaults=0 invalidations=7 retries=12 fallbacks=1 resends=24 cache0=6782976 cache1=3702784 core0=2326528 core1=1409024 core2=1409024 core3=1146880 core4=2195456 core5=884736 core6=884736 core7=884736 mem0=6488064 mem1=7176192 qpi=3571712", 45, 0xb61dc2d7777af5e3},
}

// TestFaultRunsPinned pins the timing, counters and degradation sequence
// of every KNEM protocol under fixed-seed fault plans.
func TestFaultRunsPinned(t *testing.T) {
	for _, pc := range pinCases() {
		for i, plan := range pinPlans() {
			key := fmt.Sprintf("%s/plan%d", pc.name, i)
			t.Run(key, func(t *testing.T) {
				run := runPinned(t, pc, plan)
				got := run.pin()
				if want, ok := faultPins[key]; !ok || got != want {
					t.Errorf("got  %q: {%#x, %q, %d, %#x},\nwant %+v\nevents:\n%s",
						key, got.endBits, got.stats, got.nEvents, got.events, want,
						strings.Join(run.events, "\n"))
				}
			})
		}
	}
}

// degradationEvents are the fallback and resend events core and hier
// emit, as "<kind> <label>" (the event detail is "rank N <label>"). Every
// label has both kinds except dma-to-sync, which only falls back.
var degradationEvents = func() []string {
	var evs []string
	for _, l := range []string{
		"bcast-linear", "scatter", "gather", "alltoall", "allgather-ring",
		"bcast-hier", "bcast-hier-leader", "bcast-multilevel", "bcast-multilevel-relay",
		"hier-bcast-intra",
	} {
		evs = append(evs, "fallback "+l, "resend "+l)
	}
	return append(evs, "fallback dma-to-sync")
}()

// TestDegradationLabelsReached runs the pinned fault plans over every KNEM
// protocol, and a plan over hier's intra-node broadcast, and requires every
// degradation event to show up: a protocol that silently drops a
// degradation branch still delivers correct payloads, so only the events
// tell. The pinned plans already reach the regionless branches (a
// hierarchical leader or multilevel relay whose registration fails and
// which then streams), so no plan is added for them.
func TestDegradationLabelsReached(t *testing.T) {
	seen := map[string]bool{}
	note := func(events []string) {
		for _, e := range events {
			if f := strings.Fields(e); len(f) == 4 && f[1] == "rank" {
				seen[f[0]+" "+f[3]] = true
			}
		}
	}
	for _, pc := range pinCases() {
		for _, plan := range pinPlans() {
			note(runPinned(t, pc, plan).events)
		}
	}
	note(runHierFaults(t))
	for _, ev := range degradationEvents {
		if !seen[ev] {
			t.Errorf("no %q event was emitted", ev)
		}
	}
}

// runHierFaults runs hier's KNEM intra-node broadcast on a two-node
// cluster under invalidations and registration failures.
func runHierFaults(t *testing.T) []string {
	t.Helper()
	box := topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 2, CoresPerSocket: 2,
		BusBW: 16e9, LinkBW: 11e9,
		CacheSize: 8 << 20, CachePortBW: 30e9,
		Spec: topology.Dancer().Spec,
	})
	cl, err := topology.CompileCluster(topology.ClusterConfig{
		Name:  "pair",
		Nodes: []topology.NodeSpec{{Name: "n0", Machine: "box"}, {Name: "n1", Machine: "box"}},
		Links: []topology.LinkSpec{{A: "n0", B: "n1", Name: "eth0", BW: 1.25e9, Lat: 50e-6}},
	}, func(string) (*topology.Machine, error) { return box, nil })
	if err != nil {
		t.Fatal(err)
	}
	tl := &trace.Timeline{}
	_, _, err = mpi.Run(mpi.Options{
		Machine: cl.Global, NP: cl.Global.NCores(), BTL: mpi.BTLSM, Timeline: tl,
		Fault: &fault.Plan{CreateFailEvery: 2, InvalidateEvery: 3},
		Coll:  hier.New(cl),
	}, func(r *mpi.Rank) {
		for it := 0; it < 3; it++ {
			r.Bcast(r.Alloc(96<<10).Whole(), it)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	for _, s := range tl.Spans {
		if s.Lane == "faults" {
			events = append(events, s.Kind+" "+s.Detail)
		}
	}
	return events
}
