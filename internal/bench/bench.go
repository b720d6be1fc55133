// Package bench is the measurement harness reproducing the paper's
// evaluation (§VI): an IMB-3.2-style protocol (barrier, timed operation,
// off-cache flushing between iterations, max-over-ranks timing), the five
// compared configurations (Tuned-SM, Tuned-KNEM, MPICH2-SM, MPICH2-KNEM,
// KNEM-Coll), and series builders for every figure and table.
package bench

import (
	"context"
	"fmt"

	"repro/internal/coll/basic"
	"repro/internal/coll/hier"
	"repro/internal/coll/mpich2"
	"repro/internal/coll/smcoll"
	"repro/internal/coll/tuned"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/tune"
)

// Op identifies a collective operation under measurement.
type Op string

// Operations covered by the paper's evaluation.
const (
	OpBcast     Op = "bcast"
	OpGather    Op = "gather"
	OpScatter   Op = "scatter"
	OpAllgather Op = "allgather"
	OpAlltoall  Op = "alltoall"
	OpAlltoallv Op = "alltoallv"
	OpBarrier   Op = "barrier"
	// OpPingPong is the classic two-rank latency/bandwidth probe (rank 0
	// and the last rank exchange one message each way; reported time is
	// the half round trip). Other ranks idle.
	OpPingPong Op = "pingpong"
)

// Comp names one measured configuration: a collective component teamed
// with a point-to-point BTL.
type Comp struct {
	Name string
	BTL  mpi.BTLKind
	// KnemMin is the BTL's KNEM activation threshold (MPICH2's LMT uses
	// 64 KiB; Open MPI uses KNEM for every rendezvous message).
	KnemMin int64
	New     func(w *mpi.World) mpi.Coll
	// Key is the canonical encoding of the component's configuration for
	// run memoization (see memo.go): two Comps with equal Keys must build
	// behaviorally identical components. The constructors in this package
	// fill it; a Comp assembled by hand may leave it empty, which opts
	// its cells out of the cache.
	Key string
	// Cluster is set by Hier/HierCfg: the compiled cluster the component
	// runs over. The harness uses it to scope cache coherence to nodes
	// (memsim coherence islands) and to partition the cell for intra-cell
	// parallel execution. Nil for single-machine components.
	Cluster *topology.Cluster
}

// PaperComponents returns the five configurations of Figures 5-8, in the
// paper's legend order.
func PaperComponents() []Comp {
	return []Comp{
		TunedSM(), TunedKNEM(), MPICH2SM(), MPICH2KNEM(), KNEMColl(),
	}
}

// TunedSM is Open MPI's default: Tuned collectives over copy-in/copy-out.
func TunedSM() Comp {
	return Comp{Name: "Tuned-SM", BTL: mpi.BTLSM, New: tuned.New, Key: tunedCfgKey("Tuned-SM", tuned.Config{})}
}

// TunedKNEM is Tuned over KNEM point-to-point rendezvous.
func TunedKNEM() Comp {
	return Comp{Name: "Tuned-KNEM", BTL: mpi.BTLKNEM, New: tuned.New, Key: tunedCfgKey("Tuned-KNEM", tuned.Config{})}
}

// MPICH2SM is MPICH2 collectives over Nemesis shared memory.
func MPICH2SM() Comp {
	return Comp{Name: "MPICH2-SM", BTL: mpi.BTLSM, New: mpich2.New, Key: "MPICH2-SM"}
}

// MPICH2KNEM is MPICH2 over the KNEM LMT.
func MPICH2KNEM() Comp {
	return Comp{Name: "MPICH2-KNEM", BTL: mpi.BTLKNEM, KnemMin: 64 << 10, New: mpich2.New, Key: "MPICH2-KNEM"}
}

// KNEMColl is the paper's component (§V) with default configuration.
func KNEMColl() Comp {
	return Comp{Name: "KNEM-Coll", BTL: mpi.BTLSM, New: core.New, Key: coreCfgKey(core.Config{})}
}

// KNEMCollCfg is the paper's component with explicit configuration.
func KNEMCollCfg(name string, cfg core.Config) Comp {
	return Comp{
		Name: name, BTL: mpi.BTLSM,
		New: func(w *mpi.World) mpi.Coll { return core.NewWithConfig(w, cfg) },
		Key: coreCfgKey(cfg),
	}
}

// TunedCfg is the Tuned component with explicit configuration, over SM or
// the KNEM BTL (the autotuner's Tuned search-space points).
func TunedCfg(name string, btl mpi.BTLKind, cfg tuned.Config) Comp {
	comp := "Tuned-SM"
	if btl == mpi.BTLKNEM {
		comp = "Tuned-KNEM"
	}
	return Comp{
		Name: name, BTL: btl,
		New: func(w *mpi.World) mpi.Coll { return tuned.NewWithConfig(w, cfg) },
		Key: tunedCfgKey(comp, cfg),
	}
}

// BasicSM is the linear reference component (ablation).
func BasicSM() Comp { return Comp{Name: "Basic-SM", BTL: mpi.BTLSM, New: basic.New, Key: "Basic-SM"} }

// SMColl is the Graham et al. fan-in/fan-out component (related work).
func SMColl() Comp { return Comp{Name: "SM-Coll", BTL: mpi.BTLSM, New: smcoll.New, Key: "SM-Coll"} }

// Hier is the cluster-level hierarchical family with a binomial/pipelined
// tree among the node leaders, over the cluster's composite machine
// (Config.Machine must be cl.Global for the cells to make sense; the memo
// key distinguishes clusters through the machine fingerprint).
func Hier(cl *topology.Cluster) Comp { return HierCfg(cl, hier.Config{}) }

// HierCfg is the hierarchical family with explicit configuration.
func HierCfg(cl *topology.Cluster, cfg hier.Config) Comp {
	inter := cfg.Inter
	if inter == "" {
		inter = "tree"
	}
	name := "Hier-Tree"
	if inter == "ring" {
		name = "Hier-Ring"
	}
	return Comp{
		Name: name, BTL: mpi.BTLSM,
		New:     hier.NewWithConfig(cl, cfg),
		Key:     hierCfgKey(cfg),
		Cluster: cl,
	}
}

// hierCfgKey canonically encodes a hier.Config; same contract as
// coreCfgKey. The cluster shape itself is covered by the cell's machine
// fingerprint (the composite machine embeds nodes and fabric).
func hierCfgKey(cfg hier.Config) string {
	if cfg.Fallback != nil {
		return ""
	}
	inter := cfg.Inter
	if inter == "" {
		inter = "tree"
	}
	knemMin := cfg.KnemMin
	if knemMin == 0 {
		knemMin = 16 << 10
	}
	interSeg := cfg.InterSeg
	if interSeg == 0 {
		interSeg = 128 << 10
	}
	return fmt.Sprintf("Hier|inter=%s|knemmin=%d|interseg=%d", inter, knemMin, interSeg)
}

// coreCfgKey canonically encodes a core.Config for memoization. Every
// field of core.Config must appear here (or make the key empty): a field
// missed by the encoding would alias distinct configurations in the cache.
func coreCfgKey(cfg core.Config) string {
	if cfg.Decider != nil || cfg.Fallback != nil {
		return "" // not canonically encodable: opt out of the cache
	}
	return fmt.Sprintf("KNEM-Coll|thr=%d|mode=%d|segi=%d|segl=%d|lmin=%d|fseg=%d|nopipe=%t|dma=%d|ring=%t|lazy=%t",
		cfg.Threshold, cfg.Mode, cfg.SegIntermediate, cfg.SegLarge, cfg.LargeMin,
		cfg.FixedSeg, cfg.NoPipeline, cfg.DMADepth, cfg.RingAllgather, cfg.LazySync)
}

// tunedCfgKey canonically encodes a tuned.Config; same contract as
// coreCfgKey.
func tunedCfgKey(comp string, cfg tuned.Config) string {
	if cfg.Decider != nil {
		return ""
	}
	return fmt.Sprintf("%s|bbin=%d|btree=%d|tseg=%d|cseg=%d|gbin=%d|agrd=%d|a2alin=%d|fan=%d|seg=%d",
		comp, cfg.BcastBinomialMax, cfg.BcastTreeMax, cfg.BcastTreeSeg, cfg.BcastChainSeg,
		cfg.GatherBinMax, cfg.AllgatherRDMax, cfg.AlltoallLinMax, cfg.Fanout, cfg.Seg)
}

// Config describes one measurement.
type Config struct {
	Machine *topology.Machine
	// NP defaults to the machine's core count (the paper fills nodes).
	NP   int
	Comp Comp
	Op   Op
	// Size follows IMB conventions: Bcast — the broadcast length;
	// Gather/Scatter/Allgather — the per-rank block; Alltoall(v) — the
	// per-pair block.
	Size int64
	// Iters measured iterations after one warm-up (default 3).
	Iters int
	// OffCache flushes all caches before every iteration (IMB's
	// -off_cache), isolating memory-system behaviour from cache reuse.
	OffCache bool
	// Root for rooted operations (default 0).
	Root int
	// Fault optionally injects a deterministic fault schedule into the
	// run (see internal/fault); counters land in Result.Stats.
	Fault *fault.Plan
	// Decider optionally attaches a tuned decision source to the world
	// (internal/tune). When nil, the global decision set installed with
	// SetDecisions is consulted for a table matching the machine; when
	// neither applies, every component keeps its hardcoded rules.
	Decider *tune.Decider
}

// shmConfig uses 128 KiB fragments for throughput benchmarks: large
// messages are bandwidth-bound, and coarser fragments keep event counts
// tractable on 48-core sweeps without changing contention behaviour.
func shmConfig() shm.Config { return shm.Config{FragSize: 128 << 10} }

// Result carries one measured point.
type Result struct {
	Config
	// Seconds is the max-over-ranks mean time per operation.
	Seconds float64
	// Stats are the counters accumulated over the measured iterations.
	Stats trace.Stats
}

// Measure runs one configuration and returns its timing. With run
// memoization enabled (EnableCache), a cell whose full key — machine,
// component configuration, op, size, nranks, iterations, decisions — was
// measured before replays the recorded result instead of re-simulating.
func Measure(cfg Config) (Result, error) {
	return MeasureCtx(context.Background(), cfg)
}

// MeasureCtx is Measure under a context: a cancelled ctx aborts the cell —
// before it starts, while it waits on an identical in-flight cell, or
// mid-simulation via the engine's interrupt poll — and returns ctx's
// error. Abort is clean: the leased engine shard is always released back
// to the pool (Reset on its next lease restores observably-fresh state),
// so a server dropping a request mid-sweep leaks nothing. Concurrent
// MeasureCtx calls for the same cache key are deduplicated: one simulates,
// the others wait and replay its memoized entry (see flight.go).
func MeasureCtx(ctx context.Context, cfg Config) (Result, error) {
	if cfg.NP == 0 {
		cfg.NP = cfg.Machine.NCores()
	}
	if cfg.Iters == 0 {
		cfg.Iters = 3
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	dec := cfg.Decider
	if dec == nil {
		dec = decisions.Load().For(cfg.Machine)
	}
	var key string
	var fl *flight
	if memo.enabled.Load() {
		if k, ok := memoKey(cfg, dec); ok {
			key = k
			for {
				if ent, ok := memoPeek(key); ok {
					memo.hits.Add(1)
					return Result{Config: cfg, Seconds: ent.Seconds, Stats: ent.Stats}, nil
				}
				var leader bool
				fl, leader = flightJoin(key)
				if leader {
					// A leader that stored the entry and finished between
					// the peek and the join leaves this caller leading a
					// flight for a cell already cached: peek again so it
					// is never simulated twice.
					if ent, ok := memoPeek(key); ok {
						flightDone(key, fl, true)
						memo.hits.Add(1)
						return Result{Config: cfg, Seconds: ent.Seconds, Stats: ent.Stats}, nil
					}
					break
				}
				memo.deduped.Add(1)
				select {
				case <-fl.done:
				case <-ctx.Done():
					return Result{}, ctx.Err()
				}
				// Leader succeeded: loop back to the peek, which now hits.
				// Leader failed: loop back and race to become the new leader.
			}
			memo.misses.Add(1)
		}
	}
	res, err := simulate(ctx, cfg, dec)
	if fl != nil {
		if err == nil {
			memoStore(key, memoEntry{Seconds: res.Seconds, Stats: res.Stats})
		}
		flightDone(key, fl, err == nil)
	}
	return res, err
}

// simulate runs cfg's cell for real on a pooled engine shard, choosing
// intra-cell parallel execution when the cell is inside the proven
// envelope (parallelEligible) and the package toggle allows it. The two
// modes produce byte-identical results — same Seconds, same Stats — so
// the choice is invisible to the memo cache. cfg must already have NP and
// Iters defaulted and dec resolved.
func simulate(ctx context.Context, cfg Config, dec *tune.Decider) (Result, error) {
	if ParallelIntra() && parallelEligible(cfg, dec) {
		res, ok, err := simulateParallel(ctx, cfg, dec)
		if err != nil || ok {
			return res, err
		}
		// The post-run audit rejected the partitioning: the parallel
		// result was discarded, re-run serially (the result stays exact).
	}
	return simulateSerial(ctx, cfg, dec)
}

// simulateSerial runs cfg's cell on a single leased engine.
func simulateSerial(ctx context.Context, cfg Config, dec *tune.Decider) (Result, error) {
	stats := &trace.Stats{}
	sh := acquireShard()
	defer releaseShard(sh)
	eng, net := sh.lease(cfg.Machine, stats)
	// Cluster cells scope hardware coherence to nodes: no real fabric
	// snoops across machines, and the same islands make the intra-cell
	// partitioning of parallel runs sound (serial and parallel runs both
	// use them, so the mode cannot change a timestamp).
	net.SetClusterIslands(cfg.Comp.Cluster)
	// Carved after the lease so a warmed shard serves it from its arena.
	perRank := sim.SlicesFor[float64](eng.Arena()).Make(cfg.NP)
	if ctx.Done() != nil {
		eng.SetInterrupt(ctx.Err)
		defer eng.SetInterrupt(nil)
	}
	_, _, err := mpi.Run(mpi.Options{
		Machine: cfg.Machine,
		NP:      cfg.NP,
		BTL:     cfg.Comp.BTL,
		KnemMin: cfg.Comp.KnemMin,
		SHM:     shmConfig(),
		Coll:    cfg.Comp.New,
		Stats:   stats,
		Fault:   cfg.Fault,
		Decider: dec,
		Engine:  eng,
		Net:     net,
	}, benchBody(cfg, stats, perRank))
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s/%s/%s/%d: %w", cfg.Machine.Name, cfg.Comp.Name, cfg.Op, cfg.Size, err)
	}
	res := Result{Config: cfg, Seconds: 0, Stats: stats.Snapshot()}
	for _, v := range perRank {
		if v > res.Seconds {
			res.Seconds = v
		}
	}
	return res, nil
}

// benchBody builds the per-rank SPMD body of one measurement cell: the
// IMB protocol of barrier / optional off-cache flush / timed operation,
// one warm-up iteration, max-over-ranks timing into perRank. stats is the
// serial run's shared sink; cluster cells never touch it (see below), so
// parallel runs pass nil.
func benchBody(cfg Config, stats *trace.Stats, perRank []float64) func(r *mpi.Rank) {
	return func(r *mpi.Rank) {
		bufs := prepare(r, cfg)
		var total float64
		for it := -1; it < cfg.Iters; it++ { // it==-1 is the warm-up
			r.Barrier()
			if cfg.OffCache {
				if r.ID() == 0 {
					r.World().Net().FlushCaches()
				}
				r.Barrier()
			}
			// Measured counters exclude the warm-up on single machines:
			// each rank re-zeroes the shared sink as it starts iteration 0
			// and the last reset wins. Cluster cells keep the warm-up's
			// counters instead: those resets fall at rank-staggered
			// instants, so which increments survive the last one depends
			// on a global interleaving that per-partition sinks cannot
			// reproduce — with purely additive counters and no mid-run
			// wipe, a parallel run's merged sinks equal the serial totals
			// exactly. Timestamps are unaffected either way.
			if it == 0 && cfg.Comp.Cluster == nil {
				stats.Reset()
			}
			t0 := r.Now()
			runOp(r, cfg, bufs)
			if it >= 0 {
				total += r.Now() - t0
			}
		}
		perRank[r.ID()] = total / float64(cfg.Iters)
	}
}

// CellKey returns the content-addressed cache key Measure uses for cfg —
// after applying the NP/Iters defaults and resolving the effective
// decision table — and ok=false for cells that are never cached (fault
// plans, components without a canonical configuration encoding). The
// serving layer keys its bounded in-memory store by it, so a served cell
// and a memoized cell can never alias under different identities.
func CellKey(cfg Config) (string, bool) {
	if cfg.Machine == nil {
		return "", false
	}
	if cfg.NP == 0 {
		cfg.NP = cfg.Machine.NCores()
	}
	if cfg.Iters == 0 {
		cfg.Iters = 3
	}
	dec := cfg.Decider
	if dec == nil {
		dec = decisions.Load().For(cfg.Machine)
	}
	return memoKey(cfg, dec)
}

// MustMeasure is Measure, panicking on simulation failure (used by the
// figure builders, where any deadlock is a bug).
func MustMeasure(cfg Config) Result {
	r, err := Measure(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// opBufs holds the per-rank buffers for one op.
type opBufs struct {
	send, recv     memsim.View
	counts, displs []int64
}

func prepare(r *mpi.Rank, cfg Config) opBufs {
	p := int64(r.Size())
	var b opBufs
	switch cfg.Op {
	case OpBcast:
		b.send = r.Alloc(cfg.Size).Whole()
	case OpGather:
		b.send = r.Alloc(cfg.Size).Whole()
		if r.ID() == cfg.Root {
			b.recv = r.Alloc(p * cfg.Size).Whole()
		}
	case OpScatter:
		if r.ID() == cfg.Root {
			b.send = r.Alloc(p * cfg.Size).Whole()
		}
		b.recv = r.Alloc(cfg.Size).Whole()
	case OpAllgather:
		b.send = r.Alloc(cfg.Size).Whole()
		b.recv = r.Alloc(p * cfg.Size).Whole()
	case OpAlltoall, OpAlltoallv:
		b.send = r.Alloc(p * cfg.Size).Whole()
		b.recv = r.Alloc(p * cfg.Size).Whole()
		i64 := sim.SlicesFor[int64](r.World().Engine().Arena())
		b.counts = i64.Stale(int(p))
		b.displs = i64.Stale(int(p))
		for i := range b.counts {
			b.counts[i] = cfg.Size
			b.displs[i] = int64(i) * cfg.Size
		}
	case OpBarrier:
	case OpPingPong:
		b.send = r.Alloc(cfg.Size).Whole()
		b.recv = r.Alloc(cfg.Size).Whole()
	default:
		panic("bench: unknown op " + string(cfg.Op))
	}
	return b
}

func runOp(r *mpi.Rank, cfg Config, b opBufs) {
	switch cfg.Op {
	case OpBcast:
		r.Bcast(b.send, cfg.Root)
	case OpGather:
		r.Gather(b.send, b.recv, cfg.Root)
	case OpScatter:
		r.Scatter(b.send, b.recv, cfg.Root)
	case OpAllgather:
		r.Allgather(b.send, b.recv)
	case OpAlltoall:
		r.Alltoall(b.send, b.recv)
	case OpAlltoallv:
		r.Alltoallv(b.send, b.counts, b.displs, b.recv, b.counts, b.displs)
	case OpBarrier:
		r.Barrier()
	case OpPingPong:
		peer := r.Size() - 1
		switch r.ID() {
		case 0:
			r.Send(peer, 1, b.send)
			r.Recv(peer, 2, b.recv)
		case peer:
			r.Recv(0, 1, b.recv)
			r.Send(0, 2, b.send)
		}
	}
}

// KiB/MiB helpers for size tables.
const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
)

// PaperSizes is the x-axis of Figures 5-8: 32 KiB to 8 MiB.
func PaperSizes() []int64 {
	return []int64{32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB}
}

// Fig4Sizes is the x-axis of Figure 4: 512 KiB to 8 MiB.
func Fig4Sizes() []int64 {
	return []int64{512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB}
}
