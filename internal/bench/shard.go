package bench

import (
	"sync"

	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Sweep sharding: every Measure cell used to build a fresh sim.Engine and
// memsim.Net, so a 200-cell figure sweep paid 200 times for event slabs,
// coroutine objects, interned routes, water-filling scratch, and
// cache-entry pools. A shard is one worker's warmed copy of that state —
// a private engine plus one memory system per machine it has measured —
// leased for the duration of a cell and reset between cells. Engine.Reset
// and Net.Reset restore observably-fresh state (same timestamps, same
// sequence numbers, bit-identical runs) while keeping every pool, so the
// arenas are sized in the worker's first cell and reused for the rest of
// the sweep. Shards are taken from a pool sized by demand: concurrent
// cells never share one, so results are byte-identical at every
// -parallel level.

type shard struct {
	eng  *sim.Engine
	nets map[*topology.Machine]*memsim.Net
}

var shardPool = sync.Pool{New: func() any {
	return &shard{eng: sim.NewEngine(), nets: map[*topology.Machine]*memsim.Net{}}
}}

// ShardStats is the high-water resident footprint of the measurement
// shards, aggregated at release time: how many cells pooled shards have
// served and the largest arena any shard has grown — the daemon's
// per-shard resident cost, surfaced in GET /v1/stats.
type ShardStats struct {
	Leases       int64 `json:"leases"`
	ArenaBytes   int64 `json:"arena_bytes_high_water"`
	ArenaPools   int   `json:"arena_slab_pools_high_water"`
	ArenaObjects int64 `json:"arena_slab_objects_high_water"`
}

var (
	shardStatsMu sync.Mutex
	shardStats   ShardStats
)

// Shards returns the pool's aggregated high-water statistics.
func Shards() ShardStats {
	shardStatsMu.Lock()
	defer shardStatsMu.Unlock()
	return shardStats
}

// acquireShard leases a warmed shard (or builds the pool's next one).
func acquireShard() *shard { return shardPool.Get().(*shard) }

// releaseShard returns a shard after its cell completes. The state left
// behind is dirty; lease resets it on next use. The shard's arena
// footprint — at its post-cell peak, before any rewind — folds into the
// pool-wide high-water stats here.
func releaseShard(s *shard) {
	a := s.eng.Arena().Stats()
	shardStatsMu.Lock()
	shardStats.Leases++
	if a.Bytes > shardStats.ArenaBytes {
		shardStats.ArenaBytes = a.Bytes
	}
	if a.Pools > shardStats.ArenaPools {
		shardStats.ArenaPools = a.Pools
	}
	if a.Objects > shardStats.ArenaObjects {
		shardStats.ArenaObjects = a.Objects
	}
	shardStatsMu.Unlock()
	shardPool.Put(s)
}

// lease readies the shard for one cell on machine m: the engine is reset,
// and m's memory system is reset onto the cell's stats sink (or built on
// first use of m by this shard).
func (s *shard) lease(m *topology.Machine, stats *trace.Stats) (*sim.Engine, *memsim.Net) {
	s.eng.Reset()
	n := s.nets[m]
	if n == nil {
		n = memsim.New(s.eng, m, stats)
		s.nets[m] = n
	} else {
		n.Reset(stats)
	}
	return s.eng, n
}
