package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/topology"
)

// runCell builds a many-core bcast cell on the given shard and runs one
// broadcast, with the options of cmd/simbench's core/bcast_cell_* cells.
func runCell(t testing.TB, m *topology.Machine, eng *sim.Engine, net *memsim.Net) sim.Time {
	t.Helper()
	now, _, err := mpi.Run(mpi.Options{
		Machine: m,
		BTL:     mpi.BTLSM,
		SHM:     shm.Config{FragSize: 128 << 10},
		Coll:    New,
		Engine:  eng,
		Net:     net,
	}, func(r *mpi.Rank) {
		buf := r.Alloc(64 << 10).Whole()
		r.Bcast(buf, 0)
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
// took several hundred per rank.
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

			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			eng.Reset()
			net.Reset(nil)
			runCell(t, m, eng, net)
			runtime.ReadMemStats(&after)

			allocs := after.Mallocs - before.Mallocs
			if limit := uint64(13 * np); allocs > limit {
				t.Errorf("warm-shard cell construction at np=%d: %d allocs, want <= %d",
					np, allocs, limit)
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
