package core

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/topology"
)

func TestModeAutoSelection(t *testing.T) {
	cases := []struct {
		mach *topology.Machine
		np   int
		hier bool
	}{
		{topology.Zoot(), 16, false},  // UMA: linear
		{topology.Dancer(), 8, true},  // 2 domains, leaves exist
		{topology.Dancer(), 2, false}, // one rank per domain: degenerate
		{topology.IG(), 48, true},
	}
	for _, c := range cases {
		w, err := mpi.NewWorld(mpi.Options{Machine: c.mach, NP: c.np, Coll: New})
		if err != nil {
			t.Fatal(err)
		}
		comp := w.Coll().(*Component)
		if got := comp.bcastMode(1<<20) == ModeHierarchical; got != c.hier {
			t.Errorf("%s np=%d: hierarchical = %v, want %v", c.mach.Name, c.np, got, c.hier)
		}
	}
}

func TestSegSizeDefaults(t *testing.T) {
	w, _ := mpi.NewWorld(mpi.Options{Machine: topology.IG(), Coll: New})
	c := w.Coll().(*Component)
	if got := c.segSize(1 << 20); got != 16<<10 {
		t.Errorf("intermediate seg = %d, want 16K", got)
	}
	if got := c.segSize(4 << 20); got != 512<<10 {
		t.Errorf("large seg = %d, want 512K", got)
	}
	w2, _ := mpi.NewWorld(mpi.Options{Machine: topology.IG(), Coll: func(w *mpi.World) mpi.Coll {
		return NewWithConfig(w, Config{NoPipeline: true})
	}})
	c2 := w2.Coll().(*Component)
	if got := c2.segSize(4 << 20); got != 4<<20 {
		t.Errorf("no-pipeline seg = %d, want full message", got)
	}
}

func TestMembersPartition(t *testing.T) {
	w, _ := mpi.NewWorld(mpi.Options{Machine: topology.IG(), Coll: New})
	c := w.Coll().(*Component)
	seen := map[int]bool{}
	for d, ms := range c.members {
		for _, rank := range ms {
			if seen[rank] {
				t.Fatalf("rank %d in two domains", rank)
			}
			seen[rank] = true
			if c.domainOf[rank] != d {
				t.Fatalf("rank %d domainOf=%d but listed in %d", rank, c.domainOf[rank], d)
			}
		}
	}
	if len(seen) != 48 {
		t.Fatalf("partition covers %d ranks", len(seen))
	}
}

// Lazy sync: the root's bcast must return before the slowest receiver has
// copied, and the region must be deregistered on the next entry.
func TestLazySyncRootDoesNotWait(t *testing.T) {
	m := topology.Dancer()
	rootExit := make([]float64, 2) // strict, lazy
	for i, lazy := range []bool{false, true} {
		var w *mpi.World
		_, w, err := mpi.Run(mpi.Options{
			Machine: m,
			Coll: func(w *mpi.World) mpi.Coll {
				return NewWithConfig(w, Config{Mode: ModeLinear, LazySync: lazy})
			},
		}, func(r *mpi.Rank) {
			b := r.Alloc(1 << 20)
			if r.ID() == 7 {
				r.Sleep(1e-3) // straggler arrives 1 ms late
			}
			r.Bcast(b.Whole(), 0)
			if r.ID() == 0 {
				rootExit[i] = r.Now()
			}
			r.Barrier() // next component entry: drains the pending sync
		})
		if err != nil {
			t.Fatal(err)
		}
		if lazy && w.Knem().ActiveRegions() != 0 {
			t.Error("lazy sync leaked a region past the next collective")
		}
	}
	if rootExit[0] < 1e-3 {
		t.Errorf("strict root exited at %g, before the straggler", rootExit[0])
	}
	if rootExit[1] >= 1e-3 {
		t.Errorf("lazy root exited at %g, should not wait for the straggler", rootExit[1])
	}
}

// Hierarchical bcast structure on IG: root + one leader per remote
// domain register; every other rank performs only reads.
func TestHierarchyRegistrationCount(t *testing.T) {
	m := topology.IG()
	_, w, err := mpi.Run(mpi.Options{
		Machine: m,
		Coll: func(w *mpi.World) mpi.Coll {
			return NewWithConfig(w, Config{Mode: ModeHierarchical, NoPipeline: true})
		},
	}, func(r *mpi.Rank) {
		b := r.Alloc(1 << 20)
		r.Bcast(b.Whole(), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 root region + 7 remote leader regions.
	if w.Stats().Registrations != 8 {
		t.Errorf("registrations = %d, want 8", w.Stats().Registrations)
	}
	if w.Knem().ActiveRegions() != 0 {
		t.Error("regions leaked")
	}
}

// The pipelined hierarchy must deliver correct data even when segments
// interleave, for several segment sizes including unaligned ones.
func TestHierarchyPipelineCorrectness(t *testing.T) {
	m := topology.IG()
	const size = 300_000 // deliberately not segment aligned
	for _, seg := range []int64{4 << 10, 16 << 10, 1 << 20} {
		seg := seg
		_, _, err := mpi.Run(mpi.Options{
			Machine:  m,
			NP:       24,
			WithData: true,
			Coll: func(w *mpi.World) mpi.Coll {
				return NewWithConfig(w, Config{Mode: ModeHierarchical, FixedSeg: seg, Threshold: 1})
			},
		}, func(r *mpi.Rank) {
			b := r.Alloc(size)
			if r.ID() == 5 {
				for i := range b.Data {
					b.Data[i] = byte(i * 31)
				}
			}
			r.Bcast(b.Whole(), 5)
			for i := 0; i < size; i += 997 {
				if b.Data[i] != byte(i*31) {
					t.Errorf("seg %d rank %d: byte %d wrong", seg, r.ID(), i)
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Ring allgather extension: correct data and no region leaks.
func TestRingAllgatherCorrectness(t *testing.T) {
	for _, m := range []*topology.Machine{topology.Dancer(), topology.IG()} {
		np := m.NCores()
		const blk = 64 << 10
		_, w, err := mpi.Run(mpi.Options{
			Machine:  m,
			NP:       np,
			WithData: true,
			Coll: func(w *mpi.World) mpi.Coll {
				return NewWithConfig(w, Config{RingAllgather: true})
			},
		}, func(r *mpi.Rank) {
			send := r.Alloc(blk)
			for i := range send.Data {
				send.Data[i] = byte(r.ID()*37 + i)
			}
			recv := r.Alloc(int64(np) * blk)
			r.Allgather(send.Whole(), recv.Whole())
			for src := 0; src < np; src++ {
				for i := 0; i < blk; i += 509 {
					if recv.Data[src*blk+i] != byte(src*37+i) {
						t.Errorf("%s rank %d: block %d byte %d wrong", m.Name, r.ID(), src, i)
						return
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if w.Knem().ActiveRegions() != 0 {
			t.Errorf("%s: regions leaked", m.Name)
		}
	}
}

// On IG the ring variant must beat the paper's Gather+Bcast composition —
// the fix §VI-D promises.
func TestRingAllgatherBeatsComposition(t *testing.T) {
	m := topology.IG()
	measure := func(ring bool) float64 {
		var worst float64
		_, _, err := mpi.Run(mpi.Options{
			Machine: m,
			Coll: func(w *mpi.World) mpi.Coll {
				return NewWithConfig(w, Config{RingAllgather: ring})
			},
		}, func(r *mpi.Rank) {
			send := r.Alloc(256 << 10)
			recv := r.Alloc(48 * 256 << 10)
			r.Barrier()
			t0 := r.Now()
			r.Allgather(send.Whole(), recv.Whole())
			if d := r.Now() - t0; d > worst {
				worst = d
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	composed := measure(false)
	ring := measure(true)
	if ring >= composed {
		t.Fatalf("ring allgather (%.0fus) not faster than Gather+Bcast (%.0fus) on IG", ring*1e6, composed*1e6)
	}
}

// The alltoall rotation: rank r's k-th read targets peer (r+k) mod p, so
// within any synchronized step the senders read are a permutation.
func TestAlltoallRotationSchedule(t *testing.T) {
	for p := 2; p <= 9; p++ {
		for k := 1; k < p; k++ {
			seen := map[int]bool{}
			for r := 0; r < p; r++ {
				peer := (r + k) % p
				if peer == r {
					t.Fatalf("p=%d k=%d r=%d: self read", p, k, r)
				}
				if seen[peer] {
					t.Fatalf("p=%d k=%d: sender %d read twice in one step", p, k, peer)
				}
				seen[peer] = true
			}
		}
	}
}

// Fallback wiring: sub-threshold ops must reach the fallback, and the
// fallback must be the Tuned component by default.
func TestFallbackIsTuned(t *testing.T) {
	w, err := mpi.NewWorld(mpi.Options{Machine: topology.Dancer(), Coll: New})
	if err != nil {
		t.Fatal(err)
	}
	c := w.Coll().(*Component)
	if c.Fallback().Name() != "tuned" {
		t.Errorf("fallback = %s, want tuned", c.Fallback().Name())
	}
	if c.Name() != "knemcoll" {
		t.Errorf("name = %s", c.Name())
	}
}

// A custom, tiny threshold must route even small messages through KNEM.
func TestThresholdConfigurable(t *testing.T) {
	_, w, err := mpi.Run(mpi.Options{
		Machine:  topology.Dancer(),
		WithData: true,
		Coll: func(w *mpi.World) mpi.Coll {
			return NewWithConfig(w, Config{Threshold: 1, Mode: ModeLinear})
		},
	}, func(r *mpi.Rank) {
		b := r.Alloc(1024)
		r.Bcast(b.Whole(), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().Registrations != 1 {
		t.Errorf("registrations = %d, want KNEM path for tiny message", w.Stats().Registrations)
	}
}

// Regression: algorithm selection for vector collectives must not depend
// on rank-local counts. Here some ranks exchange blocks far below the
// KNEM threshold while others are far above; a local size switch would
// send them down different protocols and deadlock.
func TestAlltoallvMixedSizesNoDeadlock(t *testing.T) {
	m := topology.Dancer()
	const np = 8
	_, w, err := mpi.Run(mpi.Options{
		Machine: m, NP: np, WithData: true, Coll: New,
	}, func(r *mpi.Rank) {
		p := r.Size()
		me := r.ID()
		// Rank i sends (i+1)*1KiB to every peer: rank 0's counts are all
		// 1 KiB (below threshold), rank 7's are 8 KiB... and received
		// counts vary per sender.
		sc := make([]int64, p)
		sd := make([]int64, p)
		var so int64
		for j := 0; j < p; j++ {
			sc[j] = int64(me+1) << 10
			sd[j] = so
			so += sc[j]
		}
		rc := make([]int64, p)
		rd := make([]int64, p)
		var ro int64
		for j := 0; j < p; j++ {
			rc[j] = int64(j+1) << 10
			rd[j] = ro
			ro += rc[j]
		}
		send := r.Alloc(so)
		for i := range send.Data {
			send.Data[i] = byte(me*31 + i)
		}
		recv := r.Alloc(ro)
		r.Alltoallv(send.Whole(), sc, sd, recv.Whole(), rc, rd)
		for src := 0; src < p; src++ {
			off := sd[me] // src's displacement for me: same formula on all ranks
			_ = off
			for i := int64(0); i < rc[src]; i += 97 {
				// src sent us its block for rank me, starting at its
				// sdispls[me] = me * (src+1)KiB.
				want := byte(src*31 + int(int64(me)*(int64(src)+1)<<10+i))
				if recv.Data[rd[src]+i] != want {
					t.Errorf("rank %d from %d byte %d wrong", me, src, i)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Knem().ActiveRegions() != 0 {
		t.Fatal("regions leaked")
	}
}

// dmaMachine is a two-socket box with I/OAT engines for the DMA ablation.
func dmaMachine() *topology.Machine {
	return topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 2, CoresPerSocket: 4,
		BusBW: 16e9, LinkBW: 11e9, BoardLinkBW: 1,
		CacheSize: 8 << 20, CachePortBW: 30e9,
		Spec: topology.Spec{
			CoreCopyBW: 4.5e9, KernelTrap: 100e-9, CopySetup: 500e-9,
			PinPerPage: 40e-9, CtrlLatency: 300e-9, Flops: 5.5e9,
			DMABw: 6e9,
		},
	})
}

// The DMA-offloaded Alltoall must deliver correct data and actually move
// the payload through the I/OAT engines, leaving the cores' copy engines
// idle — the offload's purpose (§III) is freeing cores, not raw speed
// (a shared per-domain engine can well be slower than all cores copying).
func TestAlltoallDMAOffload(t *testing.T) {
	m := dmaMachine()
	const blk = 256 << 10
	_, w, err := mpi.Run(mpi.Options{
		Machine: m, WithData: true,
		Coll: func(w *mpi.World) mpi.Coll {
			return NewWithConfig(w, Config{DMADepth: 4})
		},
	}, func(r *mpi.Rank) {
		p := int64(r.Size())
		send := r.Alloc(p * blk)
		for j := 0; j < int(p); j++ {
			for i := int64(0); i < blk; i += 1024 {
				send.Data[int64(j)*blk+i] = byte(r.ID()*16 + j)
			}
		}
		recv := r.Alloc(p * blk)
		r.Alltoall(send.Whole(), recv.Whole())
		for src := 0; src < int(p); src++ {
			if recv.Data[int64(src)*blk] != byte(src*16+r.ID()) {
				t.Errorf("rank %d block %d wrong", r.ID(), src)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Payload went through the DMA engines; the cores only did the local
	// self-block copies.
	dmaBytes := w.Stats().LinkBytes["dma0"] + w.Stats().LinkBytes["dma1"]
	if dmaBytes == 0 {
		t.Fatal("no bytes moved through DMA engines")
	}
	var coreBytes int64
	for name, b := range w.Stats().LinkBytes {
		if len(name) > 4 && name[:4] == "core" {
			coreBytes += b
		}
	}
	selfCopies := int64(8) * blk // one local block per rank
	if coreBytes > selfCopies {
		t.Errorf("cores moved %d bytes, want only the %d self-block bytes", coreBytes, selfCopies)
	}
}

// DMADepth on a machine without engines silently falls back to the
// synchronous path.
func TestDMADepthWithoutEngines(t *testing.T) {
	_, _, err := mpi.Run(mpi.Options{
		Machine: topology.Dancer(), WithData: true,
		Coll: func(w *mpi.World) mpi.Coll {
			return NewWithConfig(w, Config{DMADepth: 4})
		},
	}, func(r *mpi.Rank) {
		p := int64(r.Size())
		send := r.Alloc(p * 64 << 10)
		recv := r.Alloc(p * 64 << 10)
		r.Alltoall(send.Whole(), recv.Whole())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The hierarchy must be derived from the actual core placement, not rank
// numbers: with a scattered mapping (ranks round-robin over domains) the
// pipelined broadcast still delivers correct data and still registers one
// region per populated remote domain.
func TestHierarchyWithScatteredMapping(t *testing.T) {
	m := topology.IG()
	const np = 16
	mapping := m.ScatterMapping(np)
	_, w, err := mpi.Run(mpi.Options{
		Machine: m, NP: np, Mapping: mapping, WithData: true,
		Coll: func(w *mpi.World) mpi.Coll {
			return NewWithConfig(w, Config{Mode: ModeHierarchical, Threshold: 1})
		},
	}, func(r *mpi.Rank) {
		b := r.Alloc(300_000)
		if r.ID() == 3 {
			for i := range b.Data {
				b.Data[i] = byte(i * 7)
			}
		}
		r.Bcast(b.Whole(), 3)
		for i := 0; i < 300_000; i += 991 {
			if b.Data[i] != byte(i*7) {
				t.Errorf("rank %d byte %d wrong", r.ID(), i)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 16 ranks over 8 domains: every domain has 2 ranks; the root's domain
	// needs no leader region, the other 7 do, plus the root's own region.
	if w.Stats().Registrations != 8 {
		t.Errorf("registrations = %d, want 8", w.Stats().Registrations)
	}
}

// Multi-level tree: each rank's role, queried on its own, must agree with
// every other rank's and form a spanning tree rooted at root that respects
// board and domain locality, with one root child per other board, in
// ascending board order.
func TestMultiLevelRoles(t *testing.T) {
	for _, tc := range []struct {
		m     *topology.Machine
		roots []int
	}{
		{topology.IG(), []int{0, 7, 47}},
		{topology.ManyCore(512), []int{0, 200, 511}},
	} {
		w, err := mpi.NewWorld(mpi.Options{Machine: tc.m, Coll: func(w *mpi.World) mpi.Coll {
			return NewWithConfig(w, Config{Mode: ModeMultiLevel})
		}})
		if err != nil {
			t.Fatal(err)
		}
		c := w.Coll().(*Component)
		np := w.Size()
		board := func(rank int) int { return tc.m.Domains[c.domainOf[rank]].Board }
		for _, root := range tc.roots {
			roles := make([]bcastRole, np)
			for rank := range roles {
				roles[rank] = c.multiLevelRole(root, rank)
			}
			// Spanning tree: every non-root has a parent that lists it as a
			// child; edges = n-1; no cycles (depth bounded).
			edges := 0
			for rank, ro := range roles {
				for _, ch := range ro.children {
					if roles[ch].parent != rank {
						t.Fatalf("%s root %d: rank %d lists child %d, whose parent is %d", tc.m.Name, root, rank, ch, roles[ch].parent)
					}
				}
				if rank == root {
					if ro.parent != -1 {
						t.Fatalf("%s: root %d has parent %d", tc.m.Name, root, ro.parent)
					}
					continue
				}
				if ro.parent == -1 {
					t.Fatalf("%s: rank %d unparented (root %d)", tc.m.Name, rank, root)
				}
				if ro.parentRoot != (ro.parent == root) {
					t.Fatalf("%s: rank %d parentRoot=%v under parent %d (root %d)", tc.m.Name, rank, ro.parentRoot, ro.parent, root)
				}
				edges++
				depth := 0
				for cur := rank; cur != root; cur = roles[cur].parent {
					depth++
					if depth > 3 {
						t.Fatalf("%s: rank %d deeper than 3 levels", tc.m.Name, rank)
					}
				}
			}
			if edges != np-1 {
				t.Fatalf("%s root %d: tree has %d edges, want %d", tc.m.Name, root, edges, np-1)
			}
			// One child of root per remote board, in ascending board order.
			last, remote := -1, 0
			for _, ch := range roles[root].children {
				if b := board(ch); b != board(root) {
					if b <= last {
						t.Fatalf("%s root %d: remote-board children %v not in ascending board order", tc.m.Name, root, roles[root].children)
					}
					last = b
					remote++
				}
			}
			if remote != tc.m.Boards()-1 {
				t.Fatalf("%s root %d has %d remote-board children, want %d", tc.m.Name, root, remote, tc.m.Boards()-1)
			}
		}
	}
}

func TestMultiLevelBcastCorrectness(t *testing.T) {
	m := topology.IG()
	for _, np := range []int{48, 17} {
		np := np
		_, w, err := mpi.Run(mpi.Options{
			Machine: m, NP: np, WithData: true,
			Coll: func(w *mpi.World) mpi.Coll {
				return NewWithConfig(w, Config{Mode: ModeMultiLevel, Threshold: 1})
			},
		}, func(r *mpi.Rank) {
			b := r.Alloc(200_000)
			if r.ID() == np-1 {
				for i := range b.Data {
					b.Data[i] = byte(i * 11)
				}
			}
			r.Bcast(b.Whole(), np-1)
			for i := 0; i < 200_000; i += 887 {
				if b.Data[i] != byte(i*11) {
					t.Errorf("np %d rank %d byte %d wrong", np, r.ID(), i)
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if w.Knem().ActiveRegions() != 0 {
			t.Fatal("regions leaked")
		}
	}
}

// On the multi-board IG, the three-level tree must beat the flat two-level
// hierarchy for large broadcasts (fewer cross-board streams, lighter root
// bus).
func TestMultiLevelBeatsTwoLevelOnIG(t *testing.T) {
	m := topology.IG()
	measure := func(mode Mode) float64 {
		var worst float64
		_, _, err := mpi.Run(mpi.Options{
			Machine: m,
			Coll: func(w *mpi.World) mpi.Coll {
				return NewWithConfig(w, Config{Mode: mode})
			},
		}, func(r *mpi.Rank) {
			b := r.Alloc(8 << 20)
			r.Barrier()
			t0 := r.Now()
			r.Bcast(b.Whole(), 0)
			if d := r.Now() - t0; d > worst {
				worst = d
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	two := measure(ModeHierarchical)
	three := measure(ModeMultiLevel)
	if three >= two {
		t.Errorf("multi-level (%.0fus) not faster than two-level (%.0fus)", three*1e6, two*1e6)
	}
}

// On a single-board machine the multi-level tree degenerates to the
// two-level shape and stays correct.
func TestMultiLevelDegeneratesOnFlatMachine(t *testing.T) {
	_, _, err := mpi.Run(mpi.Options{
		Machine: topology.Dancer(), WithData: true,
		Coll: func(w *mpi.World) mpi.Coll {
			return NewWithConfig(w, Config{Mode: ModeMultiLevel, Threshold: 1})
		},
	}, func(r *mpi.Rank) {
		b := r.Alloc(64 << 10)
		if r.ID() == 0 {
			for i := range b.Data {
				b.Data[i] = byte(i)
			}
		}
		r.Bcast(b.Whole(), 0)
		if b.Data[1000] != byte(1000%256) {
			t.Errorf("rank %d wrong", r.ID())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
