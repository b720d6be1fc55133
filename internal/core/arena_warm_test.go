package core

import (
	"fmt"
	"testing"

	"repro/internal/allocwin"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/topology"
)

// runCell builds a many-core bcast cell on the given shard and runs one
// broadcast, with the options of cmd/simbench's core/bcast_cell_* cells.
func runCell(t testing.TB, m *topology.Machine, eng *sim.Engine, net *memsim.Net) sim.Time {
	return runOpCell(t, m, eng, net, func(r *mpi.Rank) {
		r.Bcast(r.Alloc(64<<10).Whole(), 0)
	})
}

// runOpCell runs op on every rank of a cell built on the given shard,
// followed by a barrier.
func runOpCell(t testing.TB, m *topology.Machine, eng *sim.Engine, net *memsim.Net, op func(r *mpi.Rank)) sim.Time {
	t.Helper()
	now, _, err := mpi.Run(mpi.Options{
		Machine: m,
		BTL:     mpi.BTLSM,
		SHM:     shm.Config{FragSize: 128 << 10},
		Coll:    New,
		Engine:  eng,
		Net:     net,
	}, func(r *mpi.Rank) {
		op(r)
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return now
}

// TestWarmShardConstructionAllocs pins the construction cost of a cell on
// a warmed shard. After the arena high-water mark is established, building
// the whole per-rank state — world, rank tables, transport, collective
// component — must allocate nothing from the arena-backed layers; what
// remains is the per-rank coroutine machinery (iter.Pull closures and
// goroutine bookkeeping), which measures ~12 allocations per rank. The
// bound of 13 per rank is a regression tripwire: before the arena it
// took several hundred per rank. allocwin keeps the runtime's own thread
// starts out of the count (see internal/memsim's
// TestCrossNodeCopyAllocationFree).
func TestWarmShardConstructionAllocs(t *testing.T) {
	for _, np := range []int{128, 512} {
		t.Run(fmt.Sprintf("np%d", np), func(t *testing.T) {
			if testing.Short() && np > 128 {
				t.Skip("short mode")
			}
			m := topology.ManyCore(np)
			eng := sim.NewEngine()
			net := memsim.New(eng, m, nil)

			// Warm: the first run sizes the arena; a few more let the
			// non-arena pools (fifo backing arrays, free lists, map
			// buckets) reach their plateau.
			runCell(t, m, eng, net)
			for i := 0; i < 4; i++ {
				eng.Reset()
				net.Reset(nil)
				runCell(t, m, eng, net)
			}

			allocs := allocwin.Count(func() {
				eng.Reset()
				net.Reset(nil)
				runCell(t, m, eng, net)
			})
			if limit := uint64(13 * np); allocs > limit {
				t.Errorf("warm-shard cell construction at np=%d: %d allocs, want <= %d",
					np, allocs, limit)
			}
		})
	}
}

// TestWarmKnemCollectiveAllocs pins what a warm 128-rank KNEM scatter,
// gather and alltoall cell allocates (the counts are the same under
// -race). All of it is the per-rank coroutine machinery of
// TestWarmShardConstructionAllocs: every protocol sends pooled cookie
// envelopes, and alltoall keeps the cookies it receives in an arena inbox.
// A fault-free success response that got boxed (one object per peer) or a
// closure on a per-peer path shows up here as 127 or more extra objects.
func TestWarmKnemCollectiveAllocs(t *testing.T) {
	const np, blk = 128, 64 << 10
	cases := []struct {
		name  string
		op    func(r *mpi.Rank)
		limit uint64
	}{
		{"scatter", func(r *mpi.Rank) {
			var send memsim.View
			if r.ID() == 0 {
				send = r.Alloc(np * blk).Whole()
			}
			r.Scatter(send, r.Alloc(blk).Whole(), 0)
		}, 1668},
		{"gather", func(r *mpi.Rank) {
			var recv memsim.View
			if r.ID() == 0 {
				recv = r.Alloc(np * blk).Whole()
			}
			r.Gather(r.Alloc(blk).Whole(), recv, 0)
		}, 1668},
		{"alltoall", func(r *mpi.Rank) {
			r.Alltoall(r.Alloc(np*(16<<10)).Whole(), r.Alloc(np*(16<<10)).Whole())
		}, 1668},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := topology.ManyCore(np)
			eng := sim.NewEngine()
			net := memsim.New(eng, m, nil)
			// Warm the arena and the pools, as TestWarmShardConstructionAllocs.
			for i := 0; i < 3; i++ {
				eng.Reset()
				net.Reset(nil)
				runOpCell(t, m, eng, net, tc.op)
			}
			allocs := allocwin.Count(func() {
				eng.Reset()
				net.Reset(nil)
				runOpCell(t, m, eng, net, tc.op)
			})
			if allocs > tc.limit {
				t.Errorf("warm %s cell at np=%d: %d allocs, want <= %d", tc.name, np, allocs, tc.limit)
			}
		})
	}
}

// TestArenaResetBitIdentical pins the arena's observable-freshness
// contract: a cell run on a reused shard (stale slabs, recycled rank
// tables, warm pools) must complete at exactly the same simulated time as
// the same cell on a factory-fresh engine. The subtests run in parallel so
// `go test -race -parallel 4` exercises concurrent shards the way the
// sweep runner does.
func TestArenaResetBitIdentical(t *testing.T) {
	const np = 128
	for i := 0; i < 4; i++ {
		t.Run(fmt.Sprintf("shard%d", i), func(t *testing.T) {
			t.Parallel()
			m := topology.ManyCore(np)

			fresh := sim.NewEngine()
			freshNet := memsim.New(fresh, m, nil)
			want := runCell(t, m, fresh, freshNet)

			eng := sim.NewEngine()
			net := memsim.New(eng, m, nil)
			runCell(t, m, eng, net)
			for run := 0; run < 2; run++ {
				eng.Reset()
				net.Reset(nil)
				if got := runCell(t, m, eng, net); got != want {
					t.Fatalf("reused shard run %d finished at %v, fresh at %v", run, got, want)
				}
			}
		})
	}
}
