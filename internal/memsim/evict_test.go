package memsim

import (
	"testing"

	"repro/internal/allocwin"
	"repro/internal/sim"
	"repro/internal/topology"
)

// checkCacheAccounting verifies the groupCache invariant that used is
// exactly the sum of the resident prefixes.
func checkCacheAccounting(t *testing.T, c *groupCache) {
	t.Helper()
	var sum int64
	for _, e := range c.entries {
		sum += e.hot
	}
	if sum != c.used {
		t.Fatalf("group %d: used=%d but entries sum to %d", c.group.ID, c.used, sum)
	}
}

// coreIn returns a core belonging to cache group g.
func coreIn(t *testing.T, m *topology.Machine, g int) *topology.Core {
	t.Helper()
	for _, c := range m.Cores {
		if c.Group.ID == g {
			return c
		}
	}
	t.Fatalf("no core in group %d", g)
	return nil
}

// TestEvictTrimsProtectedDirtyEntry is the regression test for the
// protected-entry branch of evict: when capacity pressure reaches the one
// entry evict must not remove, the overshoot is clamped to the entry's
// prefix, and a prefix trimmed all the way to zero removes the entry
// outright. The old code could leave a hot=0 entry in the map with a stale
// dirty bit, so dirtyOwner kept claiming a region resident() no longer
// reported.
func TestEvictTrimsProtectedDirtyEntry(t *testing.T) {
	m := topology.Dancer()
	e, n := setup(m)
	d0 := m.Domains[0]
	src := n.Alloc(d0, 128<<10, false)
	dst := n.Alloc(d0, 128<<10, false)
	run1(t, e, func(p *sim.Proc) {
		n.Copy(p, m.Cores[0], dst.Whole(), src.Whole()) // dst dirty, src clean in group 0
	})
	c := n.caches[0]
	entry := c.entries[dst.ID]
	if entry == nil || !entry.dirty {
		t.Fatal("copy did not leave dst dirty in group 0")
	}
	remote := m.Domains[1].Cores[0]
	if n.dirtyOwner(remote, dst.Whole()) != m.Groups[0] {
		t.Fatal("group 0 does not own dst dirty before the trim")
	}

	// Partial trim: shrink capacity to half the dirty entry. The clean src
	// entry goes first; the protected dirty entry is then clamped, not
	// removed.
	m.Groups[0].Size = 64 << 10
	c.evict(entry)
	if c.entries[dst.ID] != entry || entry.hot != 64<<10 || !entry.dirty {
		t.Fatalf("partial trim: entry=%v hot=%d dirty=%v, want the same entry at hot=%d dirty",
			c.entries[dst.ID], entry.hot, entry.dirty, 64<<10)
	}
	checkCacheAccounting(t, c)
	if !n.Resident(m.Groups[0], dst.View(0, 64<<10)) {
		t.Fatal("partial trim dropped the surviving prefix")
	}
	if n.Resident(m.Groups[0], dst.Whole()) {
		t.Fatal("partial trim left the full region resident")
	}

	// Full trim: with zero capacity the protected entry's prefix goes to
	// zero and the entry must leave the map entirely — resident and
	// dirtyOwner have to agree that nothing is cached.
	m.Groups[0].Size = 0
	c.evict(entry)
	if len(c.entries) != 0 || c.used != 0 || c.head != nil || c.tail != nil {
		t.Fatalf("full trim left residue: %d entries, used=%d, head=%p, tail=%p",
			len(c.entries), c.used, c.head, c.tail)
	}
	if n.Resident(m.Groups[0], dst.View(0, 1)) {
		t.Fatal("resident still reports a trimmed-to-zero entry")
	}
	if g := n.dirtyOwner(remote, dst.Whole()); g != nil {
		t.Fatalf("dirtyOwner still claims group %d for a region resident() no longer reports", g.ID)
	}
}

// TestInvalidateRegionWithInFlightCopy invalidates a source region while a
// copy reading it is in flight. The copy was priced at start time (cache
// hit) and its completion re-touches both views, so the cache must come
// back consistent even though the invalidation recycled the entry into the
// pool mid-flight.
func TestInvalidateRegionWithInFlightCopy(t *testing.T) {
	m := topology.Dancer()
	e, n := setup(m)
	d0 := m.Domains[0]
	a := n.Alloc(d0, 64<<10, false)
	t0 := n.Alloc(d0, 64<<10, false)
	t1 := n.Alloc(d0, 64<<10, false)
	run1(t, e, func(p *sim.Proc) {
		n.Copy(p, m.Cores[0], t0.Whole(), a.Whole()) // a now clean in group 0
		hits := n.Stats().CacheHits
		pe := n.CopyAsync(m.Cores[1], t1.Whole(), a.Whole())
		if n.Stats().CacheHits != hits+1 {
			t.Fatal("in-flight read of the cached source was not priced as a hit")
		}
		n.InvalidateRegion(a)
		if n.Resident(m.Groups[0], a.Whole()) {
			t.Fatal("InvalidateRegion left the source resident with a copy in flight")
		}
		pe.Wait(p)
		// Completion re-touches: a returns clean, t1 dirty in group 0.
		if !n.Resident(m.Groups[0], a.Whole()) {
			t.Fatal("finished copy did not re-establish its source")
		}
		if !n.Resident(m.Groups[0], t1.Whole()) {
			t.Fatal("finished copy did not leave its destination resident")
		}
		if n.dirtyOwner(m.Domains[1].Cores[0], t1.Whole()) != m.Groups[0] {
			t.Fatal("destination of the finished copy is not dirty in group 0")
		}
	})
	checkCacheAccounting(t, n.caches[0])
}

// TestFindCachedTieBreaksToLowestGroupID pins the documented tie-break:
// among caches holding the view at equal hop distance, findCached serves
// from the lowest group ID. Zoot's per-pair L2 groups give two groups on
// the same remote socket, trivially equidistant from a socket-0 reader.
func TestFindCachedTieBreaksToLowestGroupID(t *testing.T) {
	m := topology.Zoot()
	e, n := setup(m)
	a := n.Alloc(m.Domains[0], 64<<10, false)
	t4 := n.Alloc(m.Domains[0], 64<<10, false)
	t2 := n.Alloc(m.Domains[0], 64<<10, false)
	run1(t, e, func(p *sim.Proc) {
		// Warm a (clean) into groups 4 then 2; warm the higher ID first so
		// recency cannot masquerade as the tie-break.
		n.Copy(p, coreIn(t, m, 4), t4.Whole(), a.Whole())
		n.Copy(p, coreIn(t, m, 2), t2.Whole(), a.Whole())
	})
	reader := coreIn(t, m, 0)
	if !n.Resident(m.Groups[2], a.Whole()) || !n.Resident(m.Groups[4], a.Whole()) {
		t.Fatal("warm-up did not leave a clean in groups 2 and 4")
	}
	h2 := m.Hops(reader.Vertex, m.Groups[2].Vertex)
	h4 := m.Hops(reader.Vertex, m.Groups[4].Vertex)
	if h2 != h4 {
		t.Fatalf("test premise broken: hops to group 2 (%d) != hops to group 4 (%d)", h2, h4)
	}
	if got := n.findCached(reader, a.Whole()); got != m.Groups[2] {
		t.Errorf("findCached picked group %d, want 2 (lowest ID at equal hops)", got.ID)
	}
}

// TestCopyHotPathAllocationFree pins the tentpole claim directly in the
// test suite: after a short warm-up, the blocking Copy lifecycle
// (startCopy, rate updates, completion dispatch, cache touches) allocates
// nothing. allocwin keeps the runtime from starting an OS thread inside
// the window, which is what made a plain MemStats.Mallocs delta flaky (see
// TestCrossNodeCopyAllocationFree).
func TestCopyHotPathAllocationFree(t *testing.T) {
	m := topology.IG()
	e := sim.NewEngine()
	n := New(e, m, nil)
	src := n.Alloc(m.Domains[0], MB, false)
	dst := n.Alloc(m.Domains[1], MB, false)
	var got uint64
	e.Spawn("t", func(p *sim.Proc) {
		for i := 0; i < 64; i++ { // warm pools, FIFO rings, stats counters
			n.Copy(p, m.Cores[0], dst.View(0, 64<<10), src.View(0, 64<<10))
		}
		got = allocwin.Count(func() {
			for i := 0; i < 512; i++ {
				n.Copy(p, m.Cores[0], dst.View(0, 64<<10), src.View(0, 64<<10))
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("512 warm copies allocated %d objects, want 0", got)
	}
}
