package serve

import (
	"container/list"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
)

// store is the serving tier's bounded in-memory cell cache: a sharded LRU
// keyed by the same content-addressed cell key the bench memo layer uses
// (bench.Runner.CellKey), holding only the served payload (the cell's seconds).
// It sits between the HTTP handlers and the runner — singleflight → LRU →
// disk shards → runner — so a long-running daemon's hot set answers in
// nanoseconds without the process growing with every cell it has ever
// served: eviction drops the serving copy while the bench layer's
// persistent shards still make the next access a disk hit, not a
// re-simulation. Sharding (one mutex per shard, keys spread by hash)
// keeps concurrent batch requests from serializing on one lock.
type store struct {
	shards []storeShard
	seed   maphash.Seed
	hits   atomic.Int64
	misses atomic.Int64
}

type storeShard struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	l   list.List // front = most recently used
}

type storeEnt struct {
	key     string
	seconds float64
}

// storeShards is the fixed shard count; capacity is divided across shards.
const storeShards = 16

// newStore builds a store bounded to roughly capacity entries (at least
// one per shard).
func newStore(capacity int) *store {
	if capacity < storeShards {
		capacity = storeShards
	}
	s := &store{shards: make([]storeShard, storeShards), seed: maphash.MakeSeed()}
	per := (capacity + storeShards - 1) / storeShards
	for i := range s.shards {
		s.shards[i].cap = per
		s.shards[i].m = make(map[string]*list.Element)
	}
	return s
}

func (s *store) shard(key string) *storeShard {
	return &s.shards[maphash.String(s.seed, key)%storeShards]
}

// get returns the cached seconds for key, refreshing its recency.
func (s *store) get(key string) (float64, bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		sh.l.MoveToFront(el)
		s.hits.Add(1)
		return el.Value.(*storeEnt).seconds, true
	}
	s.misses.Add(1)
	return 0, false
}

// put records a freshly computed cell, evicting the shard's least recently
// used entry when the shard is full.
func (s *store) put(key string, seconds float64) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		el.Value.(*storeEnt).seconds = seconds
		sh.l.MoveToFront(el)
		return
	}
	if sh.l.Len() >= sh.cap {
		back := sh.l.Back()
		delete(sh.m, back.Value.(*storeEnt).key)
		sh.l.Remove(back)
	}
	sh.m[key] = sh.l.PushFront(&storeEnt{key: key, seconds: seconds})
}

// len returns the resident entry count across shards.
func (s *store) len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.Lock()
		n += s.shards[i].l.Len()
		s.shards[i].mu.Unlock()
	}
	return n
}

// counts returns the hit/miss counters.
func (s *store) counts() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// snapshot returns every resident entry, sorted by key so dumps of the
// same hot set are byte-identical regardless of shard hashing or recency.
func (s *store) snapshot() []WarmEntry {
	var out []WarmEntry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for el := sh.l.Front(); el != nil; el = el.Next() {
			e := el.Value.(*storeEnt)
			out = append(out, WarmEntry{Key: e.key, Seconds: e.seconds})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}
