package bench

import (
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
// the sweep. Each Runner keeps its own pool, sized by demand: concurrent
// cells never share a shard, so results are byte-identical at every
// -parallel level.

type shard struct {
	eng  *sim.Engine
	nets map[*topology.Machine]*memsim.Net
}

// ShardStats is the high-water resident footprint of a runner's
// measurement shards, aggregated at release time: how many cells pooled
// shards have served and the largest arena any shard has grown — the
// daemon's per-shard resident cost, surfaced in GET /v1/stats.
type ShardStats struct {
	Leases       int64 `json:"leases"`
	ArenaBytes   int64 `json:"arena_bytes_high_water"`
	ArenaPools   int   `json:"arena_slab_pools_high_water"`
	ArenaObjects int64 `json:"arena_slab_objects_high_water"`
}

// Shards returns the runner's aggregated shard high-water statistics.
func (r *Runner) Shards() ShardStats {
	r.shardMu.Lock()
	defer r.shardMu.Unlock()
	return r.shardStats
}

// acquireShard leases a warmed shard (or builds the pool's next one).
func (r *Runner) acquireShard() *shard {
	if s, ok := r.shards.Get().(*shard); ok {
		return s
	}
	return &shard{eng: sim.NewEngine(), nets: map[*topology.Machine]*memsim.Net{}}
}

// releaseShard returns a shard after its cell completes. The state left
// behind is dirty; lease resets it on next use. The shard's arena
// footprint — at its post-cell peak, before any rewind — folds into the
// runner's high-water stats here.
func (r *Runner) releaseShard(s *shard) {
	a := s.eng.Arena().Stats()
	r.shardMu.Lock()
	st := &r.shardStats
	st.Leases++
	st.ArenaBytes = max(st.ArenaBytes, a.Bytes)
	st.ArenaPools = max(st.ArenaPools, a.Pools)
	st.ArenaObjects = max(st.ArenaObjects, a.Objects)
	r.shardMu.Unlock()
	r.shards.Put(s)
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
