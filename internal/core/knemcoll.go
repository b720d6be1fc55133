// Package core implements KNEM-Coll, the paper's contribution: an Open
// MPI-style collective component that drives the KNEM kernel module
// directly from the collective algorithms instead of through point-to-point
// primitives (§V). The shared-memory transport is used only as an
// out-of-band channel for cookies and synchronization.
//
// The component exploits the three KNEM extensions of §III-B:
//
//   - persistent regions: one registration per collective, not per peer;
//   - direction control: receiver-reads for one-to-all (Broadcast,
//     Scatter, Alltoall), sender-writes for all-to-one (Gather), so every
//     non-root core executes its own copy in parallel and the root core
//     stops being the serial bottleneck;
//   - granularity control: peers copy arbitrary sub-ranges, enabling
//     Scatter offsets, the rotated Alltoall schedule, and the segment
//     pipeline of the hierarchical Broadcast.
//
// Operations below the kernel-trap profitability threshold (16 KiB, §V-A)
// are delegated to the fallback component (Open MPI Tuned by default), as
// are operations the component does not specialize.
package core

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/coll/tuned"
	"repro/internal/knem"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/tune"
)

// Mode selects the Broadcast topology.
type Mode int

const (
	// ModeAuto uses the hierarchical algorithm on NUMA machines (more
	// than one memory domain) and the linear algorithm on UMA machines
	// like Zoot, reflecting the paper's per-platform choices (§IV, §VI-E:
	// linear on Zoot, hierarchical pipelined on the NUMA nodes).
	ModeAuto Mode = iota
	// ModeLinear forces the flat single-region Broadcast.
	ModeLinear
	// ModeHierarchical forces the two-level NUMA tree.
	ModeHierarchical
	// ModeMultiLevel uses the full physical hierarchy (boards, then NUMA
	// domains, then cores) — the dynamic topology mapping the paper
	// defers to future work (§V-B).
	ModeMultiLevel
)

// Config tunes the component.
type Config struct {
	// Threshold is the smallest message the KNEM paths handle; smaller
	// operations delegate to the fallback (default 16 KiB).
	Threshold int64
	// Mode selects the Broadcast topology.
	Mode Mode
	// SegIntermediate and SegLarge are the hierarchical pipeline segment
	// sizes tuned in Fig. 4: 16 KiB below LargeMin, 512 KiB at or above.
	SegIntermediate int64
	SegLarge        int64
	LargeMin        int64
	// FixedSeg, if nonzero, overrides the segment size (Fig. 4 sweeps).
	FixedSeg int64
	// NoPipeline disables segmentation in the hierarchical Broadcast
	// (the Fig. 4 normalization baseline).
	NoPipeline bool
	// DMADepth > 0 offloads Alltoall(v) copies to the per-domain I/OAT
	// DMA engines (§III) with up to DMADepth transfers in flight per
	// rank: the engine streams one block while the core sets up the
	// next, instead of serializing the P-1 reads on the core. Ignored on
	// machines without DMA engines (Spec.DMABw == 0).
	DMADepth int
	// RingAllgather replaces the paper's Gather+Bcast Allgather
	// composition (§V-C) with the ring-style algorithm the paper
	// announces for the next release (§VI-D), removing the root-NUMA
	// bottleneck on large nodes. Off by default to stay faithful to the
	// published component.
	RingAllgather bool
	// Decider, when non-nil, supplies empirically tuned decisions
	// (internal/tune): whether the KNEM path beats the fallback for a
	// given (op, nranks, size) cell, which Broadcast topology to use, and
	// which pipeline segment. Cells the table does not cover fall back to
	// the hardcoded rules above. A component built with an all-default
	// Config adopts the world's decider automatically (mpi.Options);
	// explicitly configured components (fixed segments, forced modes —
	// the Fig. 4 sweeps and ablations) are never steered.
	Decider *tune.Decider
	// LazySync defers the root-side synchronization of rooted operations:
	// instead of idling for every peer's ACK before returning (§V-B step
	// 6), the root returns once the cookies are out and drains the ACKs —
	// deregistering the region — when it next enters the component. This
	// follows §III-B's persistent-region rationale (regions outlive a
	// single access; synchronization overhead is amortized) and matters
	// for applications like ASP whose per-rank compute is uneven: the
	// root stops absorbing the stragglers' skew. The strict protocol
	// (default) matches §V-B exactly.
	LazySync bool
	// Fallback builds the delegate component (default: Open MPI Tuned).
	Fallback func(w *mpi.World) mpi.Coll
}

func (c *Config) fill() {
	if c.Threshold == 0 {
		c.Threshold = 16 << 10
	}
	if c.SegIntermediate == 0 {
		c.SegIntermediate = 16 << 10
	}
	if c.SegLarge == 0 {
		c.SegLarge = 512 << 10
	}
	if c.LargeMin == 0 {
		c.LargeMin = 2 << 20
	}
	if c.Fallback == nil {
		c.Fallback = tuned.New
	}
}

// Component is the KNEM collective component.
type Component struct {
	w   *mpi.World
	cfg Config
	fb  mpi.Coll
	// domainOf[rank] and members[domainID] describe rank locality,
	// derived from hwloc-style topology information (§IV).
	domainOf []int
	members  [][]int
	// pending holds each rank's deferred region synchronization when
	// LazySync is on: outstanding ACK count, their tag, and the region
	// to deregister once they are in.
	pending map[int]*pendingSync
	// Free lists for the hot out-of-band envelopes. Sending a bare
	// cookieMsg or segReady boxes it into an interface — one heap
	// allocation per control message. The protocols instead send pooled
	// pointers: the receiver unboxes the value and returns the envelope
	// (cookieOf/segOf), so steady-state collectives allocate nothing for
	// control traffic. The component is shared by every rank of one
	// single-threaded simulated world, so no locking is needed.
	ckPool []*cookieMsg
	sgPool []*segReady
	psPool []*pendingSync
	// a2aInbox[rank] holds the cookie envelopes the rank's current
	// alltoall received ahead of its rotated schedule, by sender (see
	// inbox).
	a2aInbox [][]*cookieMsg
}

type pendingSync struct {
	cookie knem.Cookie
	tag    int
	nACKs  int
}

// drainPending completes rank r's deferred synchronization from its
// previous rooted operation, deregistering the old region.
func (c *Component) drainPending(r *mpi.Rank) {
	ps := c.pending[r.ID()]
	if ps == nil {
		return
	}
	delete(c.pending, r.ID())
	for i := 0; i < ps.nACKs; i++ {
		r.RecvOOB(mpi.AnySource, ps.tag)
	}
	ck := ps.cookie
	*ps = pendingSync{}
	c.psPool = append(c.psPool, ps)
	coll.Destroy(r, ck)
}

// finishRoot ends a read-region owner's part in a rooted operation: it
// either waits for the n peers' responses and deregisters now (strict §V-B
// protocol) or defers both to the rank's next entry (LazySync). Under a
// fault plan a response may be a NACK, served by sending the requested
// bytes of v on dataTag and counted as a resend of op, so nothing is
// deferred.
func (c *Component) finishRoot(r *mpi.Rank, v memsim.View, ck knem.Cookie, respTag, dataTag, n int, op string) {
	if c.cfg.LazySync && !coll.Faulty(r) {
		// Drain any state a previous operation left behind before it is
		// overwritten: overwriting would leak the old region and strand its
		// unconsumed ACKs in the out-of-band queue.
		c.drainPending(r)
		ps := c.newPending()
		ps.cookie, ps.tag, ps.nACKs = ck, respTag, n
		c.pending[r.ID()] = ps
		return
	}
	coll.Serve(r, v, knem.DirRead, coll.Collect(r, respTag, n), dataTag, op)
	coll.Destroy(r, ck)
}

// FlushPending drains every deferred synchronization this rank still owes
// (call before tearing down a world or asserting region counts).
func (c *Component) FlushPending(r *mpi.Rank) { c.drainPending(r) }

// newPending takes a pendingSync from the free list or allocates one.
func (c *Component) newPending() *pendingSync {
	if k := len(c.psPool); k > 0 {
		ps := c.psPool[k-1]
		c.psPool[k-1] = nil
		c.psPool = c.psPool[:k-1]
		return ps
	}
	return &pendingSync{}
}

// tunable reports whether every knob is at its default, i.e. whether a
// world-level decision table may steer this component.
func (c *Config) tunable() bool {
	return c.Threshold == 0 && c.Mode == ModeAuto && c.SegIntermediate == 0 &&
		c.SegLarge == 0 && c.LargeMin == 0 && c.FixedSeg == 0 && !c.NoPipeline &&
		c.DMADepth == 0 && !c.RingAllgather && !c.LazySync && c.Fallback == nil
}

// New builds the component with default configuration.
func New(w *mpi.World) mpi.Coll { return NewWithConfig(w, Config{}) }

// NewWithConfig builds the component with explicit configuration.
//
// Components live in the engine's arena. The locality tables use one
// dense CSR-style layout — domainOf plus per-domain member sub-slices
// carved from a single int backing in rank order — so walking a domain's
// members is a contiguous scan, and a warmed shard rebuilds the whole
// component (envelope pools included) without heap allocations.
func NewWithConfig(w *mpi.World, cfg Config) mpi.Coll {
	if cfg.Decider == nil && cfg.tunable() {
		cfg.Decider = w.Decider()
	}
	cfg.fill()
	arena := w.Engine().Arena()
	c := sim.SlabFor[Component](arena).Get()
	c.w, c.cfg = w, cfg
	c.fb = cfg.Fallback(w)
	if c.pending == nil {
		c.pending = make(map[int]*pendingSync)
	} else {
		clear(c.pending)
	}
	// ckPool, sgPool, psPool are kept: recycled envelopes stay valid.
	c.a2aInbox = nil
	np := w.Size()
	nd := len(w.Machine().Domains)
	ints := sim.SlicesFor[int](arena)
	c.domainOf = ints.Stale(np)
	counts := ints.Make(nd)
	for rank := 0; rank < np; rank++ {
		d := w.Rank(rank).Core().Domain.ID
		c.domainOf[rank] = d
		counts[d]++
	}
	c.members = sim.SlicesFor[[]int](arena).Make(nd)
	backing := ints.Stale(np)
	off := 0
	for d := 0; d < nd; d++ {
		c.members[d] = backing[off : off : off+counts[d]]
		off += counts[d]
	}
	for rank := 0; rank < np; rank++ {
		d := c.domainOf[rank]
		c.members[d] = append(c.members[d], rank)
	}
	return c
}

// Name implements mpi.Coll.
func (*Component) Name() string { return "knemcoll" }

// Fallback exposes the delegate (tests).
func (c *Component) Fallback() mpi.Coll { return c.fb }

// lookup fetches the tuned cell for an n-byte instance of op, when a
// decision table is attached and covers the operation near this size.
func (c *Component) lookup(op string, n int64) (tune.Cell, bool) {
	if c.cfg.Decider == nil {
		return tune.Cell{}, false
	}
	return c.cfg.Decider.Lookup(op, c.w.Size(), n)
}

// useKnem decides whether an n-byte instance of op takes the KNEM path.
// With a tuned cell the KNEM path runs only when the cell's best KNEM-Coll
// configuration beat the measured fallback, and above that configuration's
// own activation threshold; without one, the hardcoded profitability
// threshold rules (§V-A).
func (c *Component) useKnem(op string, n int64) bool {
	if cell, ok := c.lookup(op, n); ok && cell.Alts.Knem != nil {
		if fb := cell.Alts.TunedSM; fb != nil && fb.Seconds < cell.Alts.Knem.Seconds {
			return false
		}
		if thr := cell.Alts.Knem.Choice.Threshold; thr > 0 {
			return n >= thr
		}
	}
	return n >= c.cfg.Threshold
}

// bcastMode resolves the Broadcast topology for an n-byte message: a tuned
// cell's mode wins, then the configured mode, with ModeAuto resolved by
// the per-platform rule (§IV, §VI-E: hierarchical on NUMA machines with
// leaves under the domain leaders, linear otherwise).
func (c *Component) bcastMode(n int64) Mode {
	mode := c.cfg.Mode
	if cell, ok := c.lookup(tune.OpBcast, n); ok && cell.Alts.Knem != nil {
		switch cell.Alts.Knem.Choice.Mode {
		case "linear":
			mode = ModeLinear
		case "hierarchical":
			mode = ModeHierarchical
		case "multilevel":
			mode = ModeMultiLevel
		}
	}
	if mode != ModeAuto {
		return mode
	}
	// A hierarchy needs leaves: with one rank per domain the tree
	// degenerates to the linear algorithm anyway.
	if len(c.w.Machine().Domains) < 2 || c.w.Size() <= len(c.w.Machine().Domains) {
		return ModeLinear
	}
	return ModeHierarchical
}

// segSize returns the pipeline segment size for an n-byte Broadcast.
func (c *Component) segSize(n int64) int64 {
	if c.cfg.NoPipeline {
		return n
	}
	if c.cfg.FixedSeg != 0 {
		return c.cfg.FixedSeg
	}
	if cell, ok := c.lookup(tune.OpBcast, n); ok && cell.Alts.Knem != nil && cell.Alts.Knem.Choice.Seg > 0 {
		return cell.Alts.Knem.Choice.Seg
	}
	if n >= c.cfg.LargeMin {
		return c.cfg.SegLarge
	}
	return c.cfg.SegIntermediate
}

// Out-of-band payloads.
type (
	// cookieMsg announces an owner's region. A zero cookie announces that
	// the owner has none: with n == 0 the whole operation falls back to the
	// delegate (see fallback), otherwise the owner streams the data
	// point-to-point.
	cookieMsg struct {
		cookie knem.Cookie
		off    int64 // where the receiver should start in the region
		n      int64 // how many bytes concern the receiver
	}
	segReady struct {
		seg int
	}
)

// fallback reports whether a cookie message announces a whole-operation
// fallback: the owner's registration failed before any peer touched it.
func (m cookieMsg) fallback() bool { return m.cookie == 0 && m.n == 0 }

// announce boxes an owner's cookie message, or the whole-operation
// fallback verdict when the owner failed to register (ok false).
func (c *Component) announce(ok bool, m cookieMsg) *cookieMsg {
	if !ok {
		m = cookieMsg{}
	}
	return c.ck(m)
}

// ck boxes a cookieMsg into a pooled envelope for SendOOB; the receiver
// unboxes and recycles it with cookieOf.
func (c *Component) ck(m cookieMsg) *cookieMsg {
	var p *cookieMsg
	if k := len(c.ckPool); k > 0 {
		p = c.ckPool[k-1]
		c.ckPool[k-1] = nil
		c.ckPool = c.ckPool[:k-1]
	} else {
		p = new(cookieMsg)
	}
	*p = m
	return p
}

// cookieOf unboxes a received cookie envelope and returns it to the pool.
func (c *Component) cookieOf(msg any) cookieMsg {
	p := msg.(*cookieMsg)
	m := *p
	*p = cookieMsg{}
	c.ckPool = append(c.ckPool, p)
	return m
}

// sg boxes a segment notification into a pooled envelope.
func (c *Component) sg(s int) *segReady {
	var p *segReady
	if k := len(c.sgPool); k > 0 {
		p = c.sgPool[k-1]
		c.sgPool[k-1] = nil
		c.sgPool = c.sgPool[:k-1]
	} else {
		p = new(segReady)
	}
	p.seg = s
	return p
}

// segOf unboxes a received segment notification and returns it to the pool.
func (c *Component) segOf(msg any) int {
	p := msg.(*segReady)
	s := p.seg
	p.seg = 0
	c.sgPool = append(c.sgPool, p)
	return s
}

// enter runs the per-entry bookkeeping of every collective: draining the
// previous lazy synchronization and, under a fault plan, the straggler
// delay for this rank.
func (c *Component) enter(r *mpi.Rank) {
	c.drainPending(r)
	coll.Straggle(r)
}

// Barrier delegates to the fallback component.
func (c *Component) Barrier(r *mpi.Rank) {
	c.enter(r)
	c.fb.Barrier(r)
}

// Bcast implements §V-B: linear single-region broadcast, or the
// hierarchical pipelined algorithm of §IV on deeply NUMA machines.
func (c *Component) Bcast(r *mpi.Rank, v memsim.View, root int) {
	c.enter(r)
	if r.Size() == 1 || !c.useKnem(tune.OpBcast, v.Len) {
		c.fb.Bcast(r, v, root)
		return
	}
	switch c.bcastMode(v.Len) {
	case ModeMultiLevel:
		c.bcastMultiLevel(r, v, root)
	case ModeHierarchical:
		c.bcastHierarchical(r, v, root)
	default:
		c.bcastLinear(r, v, root)
	}
}

// bcastLinear: the root declares one read region; every receiver core
// copies the full buffer in parallel, then ACKs; the root deregisters
// after all ACKs (§V-B steps 1-6). A root that cannot register falls the
// whole operation back to the delegate; a peer whose read fails NACKs and
// receives the buffer point-to-point.
//
// Tags: tag cookie, tag+1 responses, tag+2 resent data.
func (c *Component) bcastLinear(r *mpi.Rank, v memsim.View, root int) {
	tag := r.CollTag()
	p := r.Size()
	if r.ID() == root {
		ck, ok := coll.TryCreate(r, v, knem.DirRead)
		if !ok {
			coll.NoteFallback(r, "bcast-linear")
		}
		for i := 0; i < p; i++ {
			if i != root {
				r.SendOOB(i, tag, c.announce(ok, cookieMsg{cookie: ck, n: v.Len}))
			}
		}
		if !ok {
			c.fb.Bcast(r, v, root)
			return
		}
		c.finishRoot(r, v, ck, tag+1, tag+2, p-1, "bcast-linear")
		return
	}
	msg, _ := r.RecvOOB(root, tag)
	cm := c.cookieOf(msg)
	if cm.fallback() {
		c.fb.Bcast(r, v, root)
		return
	}
	coll.Access(r, v, cm.cookie, cm.off, knem.DirRead, root, tag+1, tag+2)
}

// Scatter sends block i of the root buffer to rank i; receivers read their
// own offset (granularity control), so the root performs no copies at all.
func (c *Component) Scatter(r *mpi.Rank, send, recv memsim.View, root int) {
	c.enter(r)
	if r.Size() == 1 || !c.useKnem(tune.OpScatter, recv.Len) {
		c.fb.Scatter(r, send, recv, root)
		return
	}
	counts, displs := coll.Uniform(r.Size(), recv.Len)
	c.scatterKnem(r, send, counts, displs, recv, root)
}

// Scatterv is the vector scatter over one read region. Vector variants
// always take the KNEM path: per-rank counts are not globally known, so a
// size-based switch could pick different algorithms on different ranks.
func (c *Component) Scatterv(r *mpi.Rank, send memsim.View, scounts, sdispls []int64, recv memsim.View, root int) {
	c.enter(r)
	if r.Size() == 1 {
		c.fb.Scatterv(r, send, scounts, sdispls, recv, root)
		return
	}
	c.scatterKnem(r, send, scounts, sdispls, recv, root)
}

// scatterKnem degrades a failed root registration to the delegate's
// Scatterv and failed peer reads to point-to-point resends of the block.
//
// Tags: tag cookie, tag+1 responses, tag+2 resent blocks.
func (c *Component) scatterKnem(r *mpi.Rank, send memsim.View, scounts, sdispls []int64, recv memsim.View, root int) {
	tag := r.CollTag()
	p := r.Size()
	if r.ID() == root {
		ck, ok := coll.TryCreate(r, send, knem.DirRead)
		if !ok {
			coll.NoteFallback(r, "scatter")
		}
		for i := 0; i < p; i++ {
			if i != root {
				r.SendOOB(i, tag, c.announce(ok, cookieMsg{cookie: ck, off: sdispls[i], n: scounts[i]}))
			}
		}
		if !ok {
			c.fb.Scatterv(r, send, scounts, sdispls, recv, root)
			return
		}
		r.LocalCopy(recv.SubView(0, scounts[root]), coll.VBlock(send, scounts, sdispls, root))
		c.finishRoot(r, send, ck, tag+1, tag+2, p-1, "scatter")
		return
	}
	msg, _ := r.RecvOOB(root, tag)
	cm := c.cookieOf(msg)
	if cm.fallback() {
		c.fb.Scatterv(r, send, scounts, sdispls, recv, root)
		return
	}
	coll.Access(r, recv.SubView(0, cm.n), cm.cookie, cm.off, knem.DirRead, root, tag+1, tag+2)
}

// Gather uses direction control (§V-B): the root declares its receive
// buffer as a write region and all non-root processes write their blocks
// simultaneously — impossible with point-to-point semantics.
func (c *Component) Gather(r *mpi.Rank, send, recv memsim.View, root int) {
	c.enter(r)
	if r.Size() == 1 || !c.useKnem(tune.OpGather, send.Len) {
		c.fb.Gather(r, send, recv, root)
		return
	}
	counts, displs := coll.Uniform(r.Size(), send.Len)
	c.gatherKnem(r, send, recv, counts, displs, root)
}

// Gatherv is the vector gather over one write region (always the KNEM
// path: counts are only significant at the root, so no globally
// consistent size switch exists).
func (c *Component) Gatherv(r *mpi.Rank, send, recv memsim.View, rcounts, rdispls []int64, root int) {
	c.enter(r)
	if r.Size() == 1 {
		c.fb.Gatherv(r, send, recv, rcounts, rdispls, root)
		return
	}
	c.gatherKnem(r, send, recv, rcounts, rdispls, root)
}

// gatherKnem degrades a failed root registration to the delegate's
// Gatherv; a peer whose write fails NACKs and sends its block
// point-to-point for the root to place.
//
// Tags: tag cookie, tag+1 responses, tag+2 resent blocks.
func (c *Component) gatherKnem(r *mpi.Rank, send, recv memsim.View, rcounts, rdispls []int64, root int) {
	tag := r.CollTag()
	p := r.Size()
	if r.ID() == root {
		ck, ok := coll.TryCreate(r, recv, knem.DirWrite)
		if !ok {
			coll.NoteFallback(r, "gather")
		}
		for i := 0; i < p; i++ {
			if i != root {
				r.SendOOB(i, tag, c.announce(ok, cookieMsg{cookie: ck, off: rdispls[i], n: rcounts[i]}))
			}
		}
		if !ok {
			c.fb.Gatherv(r, send, recv, rcounts, rdispls, root)
			return
		}
		r.LocalCopy(coll.VBlock(recv, rcounts, rdispls, root), send.SubView(0, rcounts[root]))
		coll.Serve(r, recv, knem.DirWrite, coll.Collect(r, tag+1, p-1), tag+2, "gather")
		coll.Destroy(r, ck)
		return
	}
	msg, _ := r.RecvOOB(root, tag)
	cm := c.cookieOf(msg)
	if cm.fallback() {
		c.fb.Gatherv(r, send, recv, rcounts, rdispls, root)
		return
	}
	coll.Access(r, send.SubView(0, cm.n), cm.cookie, cm.off, knem.DirWrite, root, tag+1, tag+2)
}

// Allgather is the paper's assembly of a KNEM Gather to rank 0 followed by
// a KNEM Broadcast (§V-C) — simple, and deliberately kept with its known
// root-bottleneck weakness on large NUMA nodes (§VI-D analyses it).
func (c *Component) Allgather(r *mpi.Rank, send, recv memsim.View) {
	c.enter(r)
	if r.Size() == 1 || !c.useKnem(tune.OpAllgather, send.Len) {
		c.fb.Allgather(r, send, recv)
		return
	}
	if c.ringAllgather(send.Len) {
		counts, displs := coll.Uniform(r.Size(), send.Len)
		c.allgatherRing(r, send, recv.SubView(0, send.Len*int64(r.Size())), counts, displs)
		return
	}
	c.Gather(r, send, recv, 0)
	c.Bcast(r, recv.SubView(0, send.Len*int64(r.Size())), 0)
}

// Allgatherv gathers to rank 0 and broadcasts the full extent.
// It may gate on counts: MPI requires identical rcounts/rdispls
// on every rank, so the decision is globally consistent.
func (c *Component) Allgatherv(r *mpi.Rank, send, recv memsim.View, rcounts, rdispls []int64) {
	c.enter(r)
	if maxCount(rcounts) < c.cfg.Threshold || r.Size() == 1 {
		c.fb.Allgatherv(r, send, recv, rcounts, rdispls)
		return
	}
	if c.ringAllgather(maxCount(rcounts)) {
		c.allgatherRing(r, send, recv, rcounts, rdispls)
		return
	}
	c.Gatherv(r, send, recv, rcounts, rdispls, 0)
	c.Bcast(r, recv.SubView(0, coll.Total(rcounts, rdispls)), 0)
}

// Alltoall rotates reads so each sender's memory is accessed by exactly
// one peer per step (§V-C, Fig. 3).
func (c *Component) Alltoall(r *mpi.Rank, send, recv memsim.View) {
	c.enter(r)
	blk := send.Len / int64(r.Size())
	if r.Size() == 1 || !c.useKnem(tune.OpAlltoall, blk) {
		c.fb.Alltoall(r, send, recv)
		return
	}
	counts, displs := coll.Uniform(r.Size(), blk)
	c.alltoallKnem(r, send, counts, displs, recv, counts, displs)
}

// Alltoallv is the rotated exchange with per-peer counts (always the
// KNEM path: each rank only sees its own counts, so a size switch could
// disagree across ranks).
func (c *Component) Alltoallv(r *mpi.Rank, send memsim.View, scounts, sdispls []int64, recv memsim.View, rcounts, rdispls []int64) {
	c.enter(r)
	if r.Size() == 1 {
		c.fb.Alltoallv(r, send, scounts, sdispls, recv, rcounts, rdispls)
		return
	}
	c.alltoallKnem(r, send, scounts, sdispls, recv, rcounts, rdispls)
}

// alltoallKnem degrades per sender: a rank that cannot register its send
// buffer pushes its blocks point-to-point instead; a reader that loses a
// peer's region posts a receive, NACKs, and keeps walking the rotated
// schedule without ever blocking a loop an owner depends on.
//
// Tags: tag cookies, tag+2 barrier, tag+3 block data (pushed or resent),
// tag+4 responses.
func (c *Component) alltoallKnem(r *mpi.Rank, send memsim.View, scounts, sdispls []int64, recv memsim.View, rcounts, rdispls []int64) {
	tag := r.CollTag()
	p := r.Size()
	me := r.ID()
	faulty := coll.Faulty(r)
	// Declare the send buffer once and publish the cookie (the paper's
	// out-of-band allgather of cookies), telling each peer where its block
	// starts.
	ck, ok := coll.TryCreate(r, send, knem.DirRead)
	if !ok {
		coll.NoteFallback(r, "alltoall")
	}
	for i := 0; i < p; i++ {
		if i != me {
			r.SendOOB(i, tag, c.ck(cookieMsg{cookie: ck, off: sdispls[i], n: scounts[i]}))
		}
	}
	var sends, recvs []*mpi.Request
	if !ok {
		// Regionless: push every block point-to-point; peers post matching
		// receives when they see the zero cookie.
		for i := 0; i < p; i++ {
			if i != me {
				sends = append(sends, r.Isend(i, tag+3, coll.VBlock(send, scounts, sdispls, i)))
			}
		}
	}
	r.LocalCopy(coll.VBlock(recv, rcounts, rdispls, me), coll.VBlock(send, scounts, sdispls, me))
	inbox := c.inbox(me, p)
	useDMA := c.cfg.DMADepth > 0 && c.w.Machine().DMA[r.Core().Domain.ID] != nil
	var inflight []*knem.Op
	// Fetch blocks in rotated order: step k reads from me+k, so at any
	// instant each sender's region has one reader.
	for step := 1; step < p; step++ {
		peer := (me + step) % p
		for inbox[peer] == nil {
			msg, from := r.RecvOOB(mpi.AnySource, tag)
			inbox[from] = msg.(*cookieMsg)
		}
		pm := c.cookieOf(inbox[peer])
		inbox[peer] = nil
		dst := coll.VBlock(recv, rcounts, rdispls, peer)
		off := pm.off
		switch {
		case pm.cookie == 0:
			// The peer pushes; no response is expected of us.
			recvs = append(recvs, r.Irecv(peer, tag+3, dst))
		case faulty:
			// Every read is answered, so each owner learns when its region
			// is free without the closing barrier.
			if err := c.fetchBlock(r, dst, pm.cookie, off, useDMA); err != nil {
				recvs = append(recvs, r.Irecv(peer, tag+3, dst))
				r.SendOOB(peer, tag+4, coll.Nack{Off: off, N: dst.Len})
			} else {
				r.SendOOB(peer, tag+4, coll.Ack{})
			}
		case useDMA:
			op, err := c.w.Knem().CopyDMA(r.Proc(), r.Core(), []memsim.View{dst}, pm.cookie, off, knem.DirRead)
			if err != nil {
				panic(fmt.Sprintf("core: rank %d dma copy: %v", me, err))
			}
			inflight = append(inflight, op)
			if len(inflight) > c.cfg.DMADepth {
				inflight[0].Wait(r.Proc())
				inflight = inflight[1:]
			}
		default:
			// Without an injector TryCopy panics rather than return an error.
			_ = coll.TryCopy(r, dst, pm.cookie, off, knem.DirRead)
		}
	}
	if faulty {
		// Every reader of our region responds exactly once; resend to the
		// NACKers, then the region is safe to drop.
		if ok {
			for _, nk := range coll.Collect(r, tag+4, p-1) {
				coll.NoteResend(r, "alltoall")
				sends = append(sends, r.Isend(nk.From, tag+3, send.SubView(nk.Off, nk.N)))
			}
		}
		r.Wait(append(sends, recvs...)...)
	} else {
		for _, op := range inflight {
			op.Wait(r.Proc())
		}
		// Nobody may deregister while peers might still read (§V-C).
		coll.Dissemination(r, tag+2)
	}
	coll.Destroy(r, ck)
}

// inbox returns rank me's alltoall inbox: one slot per sender, nil until
// that sender's cookie envelope arrives. It is carved from the arena on
// the rank's first alltoall of the run, and every alltoall leaves it
// empty again.
func (c *Component) inbox(me, p int) []*cookieMsg {
	arena := c.w.Engine().Arena()
	if c.a2aInbox == nil {
		c.a2aInbox = sim.SlicesFor[[]*cookieMsg](arena).Make(c.w.Size())
	}
	if c.a2aInbox[me] == nil {
		c.a2aInbox[me] = sim.SlicesFor[*cookieMsg](arena).Make(p)
	}
	return c.a2aInbox[me]
}

// fetchBlock is the fault-tolerant block read of alltoallKnem: a DMA
// transfer is waited on at once, so an injected DMA failure can still
// degrade to a synchronous kernel copy.
func (c *Component) fetchBlock(r *mpi.Rank, dst memsim.View, ck knem.Cookie, off int64, useDMA bool) error {
	if useDMA {
		op, err := c.w.Knem().CopyDMA(r.Proc(), r.Core(), []memsim.View{dst}, ck, off, knem.DirRead)
		if err == nil {
			op.Wait(r.Proc())
			return nil
		}
		if err != knem.ErrDMA && err != knem.ErrNoDMA {
			return err
		}
		coll.NoteFallback(r, "dma-to-sync")
	}
	return coll.TryCopy(r, dst, ck, off, knem.DirRead)
}

// ringAllgather resolves the Allgather algorithm for an n-byte block: a
// tuned cell choosing mode "ring" enables the ring-style algorithm (§VI-D)
// for that size, otherwise the configured default applies.
func (c *Component) ringAllgather(n int64) bool {
	if cell, ok := c.lookup(tune.OpAllgather, n); ok && cell.Alts.Knem != nil {
		return cell.Alts.Knem.Choice.Mode == "ring"
	}
	return c.cfg.RingAllgather
}

func maxCount(counts []int64) int64 {
	var m int64
	for _, c := range counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Reduce delegates to the fallback: KNEM moves bytes but cannot combine
// them in kernel space, so reductions are outside the component's scope
// (handled like any unimplemented collective, §V-A).
func (c *Component) Reduce(r *mpi.Rank, send, recv memsim.View, op mpi.ReduceOp, root int) {
	c.enter(r)
	c.fb.Reduce(r, send, recv, op, root)
}

// Allreduce delegates to the fallback.
func (c *Component) Allreduce(r *mpi.Rank, send, recv memsim.View, op mpi.ReduceOp) {
	c.enter(r)
	c.fb.Allreduce(r, send, recv, op)
}

// ReduceScatterBlock delegates to the fallback.
func (c *Component) ReduceScatterBlock(r *mpi.Rank, send, recv memsim.View, op mpi.ReduceOp) {
	c.enter(r)
	c.fb.ReduceScatterBlock(r, send, recv, op)
}
