// Package mpi implements an MPI-like runtime on top of the simulated
// machine: ranks are simulated processes pinned to cores, point-to-point
// messages move through the shared-memory transport (copy-in/copy-out) or
// through KNEM single-copy rendezvous, and collective operations dispatch
// to a pluggable collective component — mirroring Open MPI's COLL/BTL
// component architecture (§V-A of the paper).
//
// The runtime is intra-node only, matching the paper's scope: a single
// "world" communicator spanning all ranks on one machine.
package mpi

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/fault"
	"repro/internal/knem"
	"repro/internal/memsim"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/tune"
)

// BTLKind selects the point-to-point transport for large messages.
type BTLKind int

const (
	// BTLSM is pure copy-in/copy-out through shared FIFOs (Open MPI SM
	// BTL, MPICH2 Nemesis).
	BTLSM BTLKind = iota
	// BTLKNEM uses KNEM single-copy rendezvous for messages above the
	// eager threshold (Open MPI SM/KNEM BTL, MPICH2 DMA LMT).
	BTLKNEM
)

func (b BTLKind) String() string {
	if b == BTLKNEM {
		return "KNEM"
	}
	return "SM"
}

// Coll is a collective component. All methods are called collectively: every
// rank of the world invokes the same operation in the same order, each
// passing its own rank handle and local buffers. Buffer conventions follow
// MPI: rooted operations ignore the non-root side's unused buffer (pass a
// zero View).
type Coll interface {
	Name() string
	Barrier(r *Rank)
	Bcast(r *Rank, v memsim.View, root int)
	// Scatter sends the i-th recv.Len-sized block of send (significant at
	// root) to rank i's recv.
	Scatter(r *Rank, send, recv memsim.View, root int)
	// Gather collects each rank's send into the root's recv, block i at
	// offset i*send.Len.
	Gather(r *Rank, send, recv memsim.View, root int)
	Allgather(r *Rank, send, recv memsim.View)
	// Alltoall sends block i of send to rank i and receives block i of
	// recv from rank i; block size is send.Len/P.
	Alltoall(r *Rank, send, recv memsim.View)
	// Vector variants: counts[i]/displs[i] give the length and offset of
	// the block exchanged with rank i, in bytes.
	Gatherv(r *Rank, send memsim.View, recv memsim.View, rcounts, rdispls []int64, root int)
	Scatterv(r *Rank, send memsim.View, scounts, sdispls []int64, recv memsim.View, root int)
	Allgatherv(r *Rank, send memsim.View, recv memsim.View, rcounts, rdispls []int64)
	Alltoallv(r *Rank, send memsim.View, scounts, sdispls []int64, recv memsim.View, rcounts, rdispls []int64)
	// Reduce combines every rank's send into the root's recv with op.
	Reduce(r *Rank, send, recv memsim.View, op ReduceOp, root int)
	// Allreduce combines and delivers the result to every rank's recv.
	Allreduce(r *Rank, send, recv memsim.View, op ReduceOp)
	// ReduceScatterBlock combines element-wise and scatters equal blocks:
	// rank i receives block i of the reduction (send is P*recv.Len).
	ReduceScatterBlock(r *Rank, send, recv memsim.View, op ReduceOp)
}

// Options configures a World.
type Options struct {
	Machine *topology.Machine
	// NP is the number of ranks; defaults to the machine's core count.
	NP int
	// Mapping pins rank i to core Mapping[i]; defaults to the identity.
	Mapping []int
	// BTL selects the large-message point-to-point transport.
	BTL BTLKind
	// KnemMin is the smallest message routed through KNEM when BTL is
	// BTLKNEM; smaller rendezvous fall back to the SM fragment pipeline.
	// It models MPICH2's LMT activation threshold (64 KiB); zero means
	// every rendezvous-sized message uses KNEM (Open MPI SM/KNEM).
	KnemMin int64
	// SHM sizes the shared-memory transport.
	SHM shm.Config
	// Coll builds the collective component once per world; nil leaves
	// collective dispatch unset (p2p-only worlds).
	Coll func(w *World) Coll
	// Stats receives counters; a fresh sink is created if nil.
	Stats *trace.Stats
	// WithData backs user allocations with real bytes (tests); phantom
	// otherwise (large benchmark sweeps).
	WithData bool
	// Timeline, when non-nil, records every memory copy as a span for
	// Gantt rendering and utilization analysis.
	Timeline *trace.Timeline
	// Fault, when non-nil and non-empty, attaches a deterministic fault
	// injector to the world: the KNEM module, the memory system, and the
	// collective components consult it. A nil or empty plan leaves every
	// code path identical to the fault-free runtime.
	Fault *fault.Plan
	// Decider, when non-nil, offers empirically tuned algorithm decisions
	// (internal/tune) to the collective components built for this world.
	// Components constructed with an all-default configuration adopt it;
	// explicitly configured ones (fixed segments, forced modes) keep
	// their settings. Nil leaves every hardcoded switch point in force.
	Decider *tune.Decider
	// Engine and Net, when non-nil, run the world on an existing simulation
	// engine and the memory system built on it for Machine instead of
	// constructing fresh ones. Both must be set together, freshly
	// constructed or Reset — the sharded sweep runner in internal/bench
	// recycles a warmed engine/net pair per worker this way, so repeated
	// cells reuse event slabs, coroutine objects, and cache-entry pools. A
	// provided Net's stats sink stands as installed by memsim.New/Reset;
	// the Stats field is ignored in that case.
	Engine *sim.Engine
	Net    *memsim.Net
}

// World is one MPI job on one machine. Worlds are carved from the
// engine's arena (sim.SlabFor) and their rank table is one dense []Rank
// from the same arena: a warmed shard rebuilds a world without heap
// allocations, reusing the previous run's rank maps, OOB envelopes, and
// transport state, and sequential-by-rank access walks contiguous
// memory.
type World struct {
	eng      *sim.Engine
	net      *memsim.Net
	tr       *shm.Transport
	kn       *knem.Module
	ranks    []Rank
	opts     Options
	coll     Coll
	body     func(r *Rank) // SPMD body for the current Run
	nextComm int

	// oobPool recycles the boxed OOB envelopes (SendOOB allocates one per
	// message otherwise); dispatch returns each envelope after copying its
	// fields out. The pool survives arena recycling, so a reused world
	// slot starts warm.
	oobPool []*oobCtrl
}

// NewWorld builds the runtime but does not start rank bodies; most callers
// use Run.
func NewWorld(opts Options) (*World, error) {
	if opts.Machine == nil {
		return nil, fmt.Errorf("mpi: no machine")
	}
	if opts.NP == 0 {
		opts.NP = opts.Machine.NCores()
	}
	if opts.NP < 1 || opts.NP > opts.Machine.NCores() {
		return nil, fmt.Errorf("mpi: NP=%d out of range for %d cores", opts.NP, opts.Machine.NCores())
	}
	if opts.Mapping != nil && len(opts.Mapping) != opts.NP {
		return nil, fmt.Errorf("mpi: mapping length %d != NP %d", len(opts.Mapping), opts.NP)
	}
	if err := opts.Fault.CheckLinks(opts.Machine); err != nil {
		return nil, fmt.Errorf("mpi: fault plan: %w", err)
	}
	if (opts.Engine == nil) != (opts.Net == nil) {
		return nil, fmt.Errorf("mpi: Engine and Net must be provided together")
	}
	eng, net := opts.Engine, opts.Net
	if eng == nil {
		eng = sim.NewEngine()
		net = memsim.New(eng, opts.Machine, opts.Stats)
	} else if net.Engine() != eng || net.Machine() != opts.Machine {
		return nil, fmt.Errorf("mpi: provided Net is not built on the provided Engine and Machine")
	}
	if opts.Timeline != nil {
		net.SetTimeline(opts.Timeline)
	}
	arena := eng.Arena()
	cores := sim.SlicesFor[*topology.Core](arena).Stale(opts.NP)
	if opts.Mapping == nil {
		// Identity mapping: valid by the NP range check above, no
		// duplicate scan needed.
		m := sim.SlicesFor[int](arena).Stale(opts.NP)
		for i := range m {
			m[i] = i
			cores[i] = opts.Machine.Cores[i]
		}
		opts.Mapping = m
	} else {
		seen := make(map[int]bool, opts.NP)
		for i, c := range opts.Mapping {
			if c < 0 || c >= opts.Machine.NCores() || seen[c] {
				return nil, fmt.Errorf("mpi: bad core mapping %v", opts.Mapping)
			}
			seen[c] = true
			cores[i] = opts.Machine.Cores[c]
		}
	}
	opts.SHM.WithData = opts.WithData
	w := sim.SlabFor[World](arena).Get()
	w.opts = opts
	w.coll, w.body = nil, nil
	w.nextComm = 1 // 0 = the world component's tag space, 1 = WorldComm
	w.eng, w.net = eng, net
	w.tr = shm.New(net, cores, opts.SHM)
	w.kn = knem.New(net)
	if !opts.Fault.Empty() {
		inj := fault.NewInjector(*opts.Fault, eng, net.Stats(), opts.Timeline)
		w.kn.SetInjector(inj)
		net.SetLinkScaler(inj)
	}
	w.ranks = sim.SlicesFor[Rank](arena).Stale(opts.NP)
	for i := range w.ranks {
		initRank(&w.ranks[i], w, i)
	}
	if opts.Coll != nil {
		w.coll = opts.Coll(w)
	}
	return w, nil
}

// Run executes body once per rank (SPMD) and drives the simulation to
// completion. It returns the final simulated time.
func Run(opts Options, body func(r *Rank)) (sim.Time, *World, error) {
	w, err := NewWorld(opts)
	if err != nil {
		return 0, nil, err
	}
	w.body = body
	for i := range w.ranks {
		w.eng.SpawnArg(rankName(i), runRankBody, &w.ranks[i])
	}
	err = w.eng.Run()
	return w.eng.Now(), w, err
}

// runRankBody is the shared process body for every rank: SpawnArg applies
// it to the rank handle, so a mass spawn allocates no per-rank closure.
func runRankBody(p *sim.Proc, arg any) {
	r := arg.(*Rank)
	r.proc = p
	r.w.body(r)
}

// rankNames interns the "rankN" process names once per program: repeat
// cells on warmed shards respawn ranks without re-rendering names. The
// table is shared by every concurrent sweep worker, hence the lock (the
// simulation itself is single-threaded per engine).
var (
	rankNameMu sync.Mutex
	rankNames  []string
)

func rankName(i int) string {
	rankNameMu.Lock()
	defer rankNameMu.Unlock()
	for len(rankNames) <= i {
		rankNames = append(rankNames, "rank"+strconv.Itoa(len(rankNames)))
	}
	return rankNames[i]
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Machine returns the hardware model.
func (w *World) Machine() *topology.Machine { return w.opts.Machine }

// Net returns the memory simulator.
func (w *World) Net() *memsim.Net { return w.net }

// Knem returns the node's KNEM module.
func (w *World) Knem() *knem.Module { return w.kn }

// Decider returns the tuned decision source attached to the world, or nil
// when the hardcoded switch points are in force.
func (w *World) Decider() *tune.Decider { return w.opts.Decider }

// BTL reports the world's large-message point-to-point transport.
func (w *World) BTL() BTLKind { return w.opts.BTL }

// Transport returns the shared-memory transport.
func (w *World) Transport() *shm.Transport { return w.tr }

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// Stats returns the counter sink.
func (w *World) Stats() *trace.Stats { return w.net.Stats() }

// Rank returns rank i's handle (for cross-rank inspection in tests).
func (w *World) Rank(i int) *Rank { return &w.ranks[i] }

// Coll returns the world's collective component.
func (w *World) Coll() Coll { return w.coll }
