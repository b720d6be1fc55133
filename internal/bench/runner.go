package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tune"
)

// Runner owns all of the measurement harness's state: the sweep
// parallelism, the tuned decision set, the run memo and its hit/miss/dedup
// counters, the singleflight table, and the pool of warmed engine shards
// with its high-water statistics. Every measuring entry point is a Runner
// method, so two runners in one process — two simd servers, or a test
// beside the command it checks — share no cache, counter or shard. The
// zero value is ready to use: sequential sweeps, no decisions, memo off.
type Runner struct {
	parallel  atomic.Int32
	decisions atomic.Pointer[tune.Set]
	memo      atomic.Pointer[memo] // nil: memoization off

	hits, misses, deduped atomic.Int64

	flightMu sync.Mutex
	flights  map[string]*flight

	// shards stays a sync.Pool: a collection empties it, which is how a
	// caller turns warm shards cold again.
	shards     sync.Pool
	shardMu    sync.Mutex
	shardStats ShardStats
}

// NewRunner returns a runner with sequential sweeps, no decision set and
// memoization off.
func NewRunner() *Runner { return &Runner{} }

// Default is the runner behind the package-level functions below.
var Default = NewRunner()

// SetParallel is Default.SetParallel.
func SetParallel(n int) { Default.SetParallel(n) }

// EnableCache is Default.EnableCache.
func EnableCache(dir string) error { return Default.EnableCache(dir) }

// DisableCache is Default.DisableCache.
func DisableCache() { Default.DisableCache() }

// CacheCounts is Default.CacheCounts.
func CacheCounts() (hits, misses int64) { return Default.CacheCounts() }

// DedupedCount is Default.DedupedCount.
func DedupedCount() int64 { return Default.DedupedCount() }

// Shards is Default.Shards.
func Shards() ShardStats { return Default.Shards() }

// MeasureAllCtx is Default.MeasureAllCtx.
func MeasureAllCtx(ctx context.Context, cfgs []Config) ([]Result, error) {
	return Default.MeasureAllCtx(ctx, cfgs)
}

// MeasureForced is Default.MeasureForced.
func MeasureForced(ctx context.Context, cfg Config, parallel bool) (Result, error) {
	return Default.MeasureForced(ctx, cfg, parallel)
}

// SetDecisions installs the tuned decision set consulted by every cell
// without an explicit Decider (imb -decisions): a cell whose machine
// matches one of its tables runs under tuned decisions, so every figure
// builder can be rerun tuned. nil clears it.
func (r *Runner) SetDecisions(s *tune.Set) { r.decisions.Store(s) }

// Decisions returns the installed decision set (nil when none is).
func (r *Runner) Decisions() *tune.Set { return r.decisions.Load() }

// The sweep layer is embarrassingly parallel: every Measure cell owns a
// private sim.Engine, memsim.Net, and trace.Stats, and only reads the
// shared *topology.Machine (immutable after Build). Cells therefore run
// concurrently on a worker pool, while results are always assembled in
// cell-index order — so every rendered table is byte-identical to the
// sequential run regardless of the parallelism level.

// SetParallel sets the number of measurement cells run concurrently by the
// sweep builders (figures, scalability, ablations, Table 1). n < 1 is
// treated as 1 (sequential, the default).
func (r *Runner) SetParallel(n int) { r.parallel.Store(int32(max(n, 1))) }

// Parallel returns the current sweep parallelism level.
func (r *Runner) Parallel() int { return max(int(r.parallel.Load()), 1) }

// MeasureAll runs every config as one cell on the worker pool and returns
// the results in input order; it panics if any cell's simulation fails.
func (r *Runner) MeasureAll(cfgs []Config) []Result {
	out, err := r.MeasureAllCtx(context.Background(), cfgs)
	if err != nil {
		panic(err)
	}
	return out
}

// MeasureAllCtx is MeasureAll under a context, returning errors instead of
// panicking: cancelling ctx stops the sweep — workers take no new cells,
// and in-flight cells abort through the engine interrupt poll — with every
// leased engine shard released back to the pool. When multiple cells fail,
// the error of the lowest-indexed failing cell is returned, so the
// reported error does not depend on worker interleaving. On any error the
// partial results are discarded.
func (r *Runner) MeasureAllCtx(ctx context.Context, cfgs []Config) ([]Result, error) {
	out := make([]Result, len(cfgs))
	if err := r.runCellsCtx(ctx, len(cfgs), func(i int) error {
		var err error
		out[i], err = r.MeasureCtx(ctx, cfgs[i])
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// cellPanic carries a panic out of a worker so it is re-raised on the
// caller of runCellsCtx.
type cellPanic struct{ v any }

func (p cellPanic) Error() string { return fmt.Sprint(p.v) }

// runCellsCtx runs fn(i) for each index in 0..n-1, each call measuring one
// independent cell that writes only to its own result slot. With
// parallelism 1 the cells run in index order on the calling goroutine;
// otherwise a worker pool drains the index space. It stops taking cells
// once an fn fails or ctx is cancelled. The lowest-indexed failure wins,
// whatever the interleaving; a cancelled ctx surfaces as its own error
// when no cell failed first. A panic in a cell is a failure too, and is
// re-raised on the caller after every worker stops.
func (r *Runner) runCellsCtx(ctx context.Context, n int, fn func(i int) error) error {
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		errAt  = -1
		errVal error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if errAt < 0 || i < errAt {
			errAt, errVal = i, err
		}
		mu.Unlock()
	}
	stopped := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return errAt >= 0
	}
	body := func() {
		i := n
		defer func() {
			if p := recover(); p != nil {
				fail(i, cellPanic{p})
			}
		}()
		for {
			if err := ctx.Err(); err != nil {
				fail(n, err) // rank context errors after any real cell error
				return
			}
			if stopped() {
				return
			}
			if i = int(next.Add(1)) - 1; i >= n {
				return
			}
			if err := fn(i); err != nil {
				fail(i, err)
				return
			}
		}
	}
	if workers := min(r.Parallel(), n); workers <= 1 {
		body()
	} else {
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body()
			}()
		}
		wg.Wait()
	}
	if p, ok := errVal.(cellPanic); ok {
		panic(fmt.Sprintf("bench: cell %d failed: %v", errAt, p.v))
	}
	return errVal
}
