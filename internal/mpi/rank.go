package mpi

import (
	"fmt"

	"repro/internal/knem"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// AnySource and AnyTag are matching wildcards.
const (
	AnySource = -1
	AnyTag    = -1
)

// Rank is one MPI process, pinned to a core and executed by a simulated
// process. Rank methods must only be called from the rank's own body
// function (they block the rank's process in simulated time).
type Rank struct {
	w    *World
	id   int
	proc *sim.Proc
	core *topology.Core

	// Point-to-point engine state (see p2p.go).
	posted     []*Request // posted receives awaiting a match
	unexpected []*inHdr   // arrived headers with no matching receive
	oobQ       []oobMsg   // out-of-band messages awaiting RecvOOB
	credits    map[int]int
	sendSeq    map[int]int64
	activeRecv map[int64]*Request
	activeSend map[int64]*Request
	nextReq    int64
	collSeq    int64
}

// initRank readies one slot of the world's dense rank table. Slots come
// from the engine arena with the previous run's contents ("stale"), so
// every field is reinitialized here — and the expensive ones are
// recycled rather than rebuilt: the four p2p maps keep their buckets via
// clear (reinsertion up to the high-water peer count allocates nothing),
// and the queue slices keep their capacity.
func initRank(r *Rank, w *World, id int) {
	r.w, r.id, r.core = w, id, w.tr.Core(id)
	r.proc = nil
	clear(r.posted)
	r.posted = r.posted[:0]
	clear(r.unexpected)
	r.unexpected = r.unexpected[:0]
	clear(r.oobQ)
	r.oobQ = r.oobQ[:0]
	if r.credits == nil {
		r.credits = make(map[int]int)
		r.sendSeq = make(map[int]int64)
		r.activeRecv = make(map[int64]*Request)
		r.activeSend = make(map[int64]*Request)
	} else {
		clear(r.credits)
		clear(r.sendSeq)
		clear(r.activeRecv)
		clear(r.activeSend)
	}
	r.nextReq, r.collSeq = 0, 0
}

// ID returns the rank number in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.w.ranks) }

// World returns the enclosing world.
func (r *Rank) World() *World { return r.w }

// Core returns the core this rank is pinned to.
func (r *Rank) Core() *topology.Core { return r.core }

// Net returns the memory system this rank executes on.
func (r *Rank) Net() *memsim.Net { return r.w.net }

// Knem returns the KNEM module serving this rank.
func (r *Rank) Knem() *knem.Module { return r.w.kn }

// Stats returns the counter sink this rank charges.
func (r *Rank) Stats() *trace.Stats { return r.w.net.Stats() }

// Proc returns the simulated process executing this rank.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns the current simulated time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Alloc allocates a buffer on this rank's memory domain (first-touch
// locality, as an MPI process touching its own buffers would get).
func (r *Rank) Alloc(size int64) *memsim.Buffer {
	return r.w.net.Alloc(r.core.Domain, size, r.w.opts.WithData)
}

// AllocData allocates a byte-backed buffer regardless of the world's
// WithData setting.
func (r *Rank) AllocData(size int64) *memsim.Buffer {
	return r.w.net.Alloc(r.core.Domain, size, true)
}

// LocalCopy copies src to dst with this rank's own core (a plain memcpy in
// the rank's address space).
func (r *Rank) LocalCopy(dst, src memsim.View) {
	r.w.net.Copy(r.proc, r.core, dst, src)
}

// Compute charges ops operations of local computation at the machine's
// per-core rate.
func (r *Rank) Compute(ops float64) {
	if ops <= 0 {
		return
	}
	r.proc.Wait(ops / r.w.opts.Machine.Spec.Flops)
}

// Sleep advances this rank's local time.
func (r *Rank) Sleep(d sim.Time) { r.proc.Wait(d) }

// TouchCache records the cache footprint of a charged compute phase: the
// simulator only sees communication, so applications whose computation
// streams large working sets (polluting the cache) or keeps hot buffers
// resident report that here, after the corresponding Compute call.
func (r *Rank) TouchCache(v memsim.View, write bool) {
	r.w.net.Touch(r.core, v, write)
}

// --- Collective dispatch -------------------------------------------------

func (r *Rank) coll() Coll {
	if r.w.coll == nil {
		panic(fmt.Sprintf("mpi: rank %d: no collective component configured", r.id))
	}
	return r.w.coll
}

// Barrier blocks until every rank has entered it.
func (r *Rank) Barrier() { r.coll().Barrier(r) }

// Bcast broadcasts root's v to every rank's v.
func (r *Rank) Bcast(v memsim.View, root int) { r.coll().Bcast(r, v, root) }

// Scatter distributes root's send blocks; each rank receives into recv.
func (r *Rank) Scatter(send, recv memsim.View, root int) { r.coll().Scatter(r, send, recv, root) }

// Gather collects every rank's send into root's recv.
func (r *Rank) Gather(send, recv memsim.View, root int) { r.coll().Gather(r, send, recv, root) }

// Allgather gathers every rank's send into every rank's recv.
func (r *Rank) Allgather(send, recv memsim.View) { r.coll().Allgather(r, send, recv) }

// Alltoall performs a personalized all-to-all exchange.
func (r *Rank) Alltoall(send, recv memsim.View) { r.coll().Alltoall(r, send, recv) }

// Gatherv is Gather with per-rank counts and displacements (bytes).
func (r *Rank) Gatherv(send, recv memsim.View, rcounts, rdispls []int64, root int) {
	r.coll().Gatherv(r, send, recv, rcounts, rdispls, root)
}

// Scatterv is Scatter with per-rank counts and displacements (bytes).
func (r *Rank) Scatterv(send memsim.View, scounts, sdispls []int64, recv memsim.View, root int) {
	r.coll().Scatterv(r, send, scounts, sdispls, recv, root)
}

// Allgatherv is Allgather with per-rank counts and displacements.
func (r *Rank) Allgatherv(send, recv memsim.View, rcounts, rdispls []int64) {
	r.coll().Allgatherv(r, send, recv, rcounts, rdispls)
}

// Alltoallv is Alltoall with per-rank counts and displacements.
func (r *Rank) Alltoallv(send memsim.View, scounts, sdispls []int64, recv memsim.View, rcounts, rdispls []int64) {
	r.coll().Alltoallv(r, send, scounts, sdispls, recv, rcounts, rdispls)
}

// Reduce combines every rank's send into root's recv with op.
func (r *Rank) Reduce(send, recv memsim.View, op ReduceOp, root int) {
	r.coll().Reduce(r, send, recv, op, root)
}

// Allreduce combines every rank's send into every rank's recv.
func (r *Rank) Allreduce(send, recv memsim.View, op ReduceOp) {
	r.coll().Allreduce(r, send, recv, op)
}

// ReduceScatterBlock combines and scatters equal blocks of the result.
func (r *Rank) ReduceScatterBlock(send, recv memsim.View, op ReduceOp) {
	r.coll().ReduceScatterBlock(r, send, recv, op)
}

// CollTag returns a fresh internal tag for one collective invocation.
// Collective calls are ordered identically on every rank (an MPI
// requirement), so local counters agree globally. Tags are spaced so an
// algorithm may use tag..tag+15 for internal phases.
func (r *Rank) CollTag() int {
	r.collSeq++
	return collTagBase + int(r.collSeq%collTagMod)*16
}

const (
	collTagBase = 1 << 28
	collTagMod  = 1 << 20
)

// Ranker is the surface the generic collective algorithms (package coll)
// program against: rank identity, point-to-point, local memory, and
// out-of-band messaging. *Rank implements it over the world communicator;
// *CommRank implements it over a sub-communicator with rank translation
// and a private tag space.
type Ranker interface {
	ID() int
	Size() int
	Isend(to, tag int, v memsim.View) *Request
	Irecv(src, tag int, v memsim.View) *Request
	Send(to, tag int, v memsim.View)
	Recv(src, tag int, v memsim.View) (int, int64)
	Sendrecv(to, stag int, sv memsim.View, from, rtag int, rv memsim.View)
	Wait(reqs ...*Request)
	LocalCopy(dst, src memsim.View)
	Alloc(size int64) *memsim.Buffer
	CollTag() int
	SendOOB(to, tag int, data any)
	RecvOOB(src, tag int) (any, int)
	ApplyReduce(op ReduceOp, dst, src memsim.View)
	Compute(ops float64)
}

var _ Ranker = (*Rank)(nil)
