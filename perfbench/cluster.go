package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/topology"
)

// The cluster_10k shape: eighty 128-core nodes behind one switch.
const (
	clusterName  = "perfbench10k"
	clusterNodes = 80
	clusterCores = 128
)

// Shape of a cluster_10k run.
const (
	clusterSetups = 5 // cluster compiles per run
	clusterWarm   = 3 // warm cells after each cold one
)

// compileCluster compiles the 10,240-rank cluster.
func compileCluster() (*topology.Cluster, error) {
	box := topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 16, CoresPerSocket: 8,
		BusBW: 35e9, LinkBW: 18e9,
		CacheSize: 32 << 20, CachePortBW: 60e9,
		Spec: topology.ManyCore(clusterCores).Spec,
	})
	cfg := topology.ClusterConfig{
		Name:   clusterName,
		Switch: &topology.SwitchSpec{Name: "tor", BW: 12e9, Lat: 2e-6},
	}
	for i := range clusterNodes {
		cfg.Nodes = append(cfg.Nodes, topology.NodeSpec{Name: fmt.Sprintf("n%d", i), Machine: "box"})
	}
	return topology.CompileCluster(cfg, func(string) (*topology.Machine, error) { return box, nil })
}

// setupCluster compiles the cluster clusterSetups times, each after a
// collection so that no compile pays for the garbage of the one before,
// timing each under tr when it is not nil, and returns the last one.
func setupCluster(tr *tracer) (*topology.Cluster, []float64, error) {
	var cl *topology.Cluster
	var times []float64
	for range clusterSetups {
		runtime.GC()
		t0 := time.Now()
		var sp int32
		if tr != nil {
			sp = tr.begin("topology.CompileCluster", "", 0)
		}
		var err error
		cl, err = compileCluster()
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return cl, times, nil
}

// runCluster is the cluster_10k workload: the 10,240-rank Hier-Tree
// broadcast on the single-engine executor (bench.MeasureForced, memo
// bypassed). Each cycle runs one cold cell on a fresh shard — the pool is
// emptied first, so the cell pays memsim.New and the per-rank arena — and
// then clusterWarm cells on the warmed shard.
func runCluster(ctx context.Context, o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	cl, setups, err := setupCluster(tr)
	if err != nil {
		return nil, err
	}
	rv := newResolver(cl)
	cell := clusterCell(o.seed)
	if o.trace {
		return traceCluster(ctx, o, tr, rv, cell, setups)
	}
	var t tally
	var cold, warm []float64
	heap := startHeapPeak()
	start := time.Now()
	for cycle := 0; cycle < 2 || time.Since(start) < o.seconds; cycle++ {
		dropShards()
		cold = append(cold, clusterCellRun(ctx, o, rv, cell, &t))
		for range clusterWarm {
			warm = append(warm, clusterCellRun(ctx, o, rv, cell, &t))
		}
	}
	peak := heap.Stop()
	// A run holds only about eight cycles, too few for a steady median of
	// per-cycle rates, so cells_per_s is taken over all cells.
	return newReport(t, endToEnd, map[string]float64{
		"setup_s":         median(setups),
		"cold_batch_s":    median(cold),
		"warm_batch_s":    median(warm),
		"cells_per_s":     float64(len(cold)+len(warm)) / (sum(cold) + sum(warm)),
		"peak_heap_bytes": peak,
	}), nil
}

// clusterCellRun measures the cell once, checks it, and returns its host
// seconds.
func clusterCellRun(ctx context.Context, o options, rv *resolver, cell cellSpec, t *tally) float64 {
	t0 := time.Now()
	res, err := measureForced(ctx, rv, cell)
	d := time.Since(t0).Seconds()
	switch {
	case err != nil:
		fmt.Fprintln(o.log, "perfbench: cluster_10k:", err)
		t.add(false)
	case !o.ref.matches(cell, res.Seconds, &res.Stats):
		fmt.Fprintf(o.log, "perfbench: cluster_10k: %s: %.9g s differs from the reference\n", cell.key(), res.Seconds)
		t.add(false)
	default:
		t.add(true)
	}
	return d
}

// traceCluster is cluster_10k's traced run. Untraced harness cells — one
// cold, two warm — give the overhead base, the allocations per warm cell
// and the shard arena footprint. Then, with the pool emptied, the direct
// path builds its own engine and net (memsim.New is timed once, cold) and
// repeats Reset + mpi.Run until the time is up.
func traceCluster(ctx context.Context, o options, tr *tracer, rv *resolver, cell cellSpec, setups []float64) (*report, error) {
	var t tally
	values := zeroLayers()
	values["topology.compile_s"] = median(setups)
	gc := startGCWatch()
	start := time.Now()
	dropShards()
	clusterCellRun(ctx, o, rv, cell, &t)
	allocs0 := readRuntime(heapAllocsMetric)[0]
	base := []float64{clusterCellRun(ctx, o, rv, cell, &t), clusterCellRun(ctx, o, rv, cell, &t)}
	values["bench.allocs_per_cell"] = (readRuntime(heapAllocsMetric)[0] - allocs0) / 2
	values["bench.shard_arena_bytes"] = float64(bench.Shards().ArenaBytes)
	harness, err := measureForced(ctx, rv, cell)
	if err != nil {
		return nil, err
	}

	dropShards()
	d := newDirectRunner(tr)
	cfg := rv.config(cell)
	var runs, resets, warmCells []float64
	for i := 0; i < 2 || time.Since(start) < o.seconds; i++ {
		cs := tr.begin("cluster_10k.cell", fmt.Sprint(i), 0)
		r, err := d.run(cfg, cs)
		wall := tr.end(cs).Seconds()
		ok := err == nil && o.ref.matches(cell, r.seconds, &r.stats)
		t.add(ok)
		if err != nil {
			fmt.Fprintln(o.log, "perfbench:", err)
			continue
		}
		if r.seconds != harness.Seconds || statsDigest(r.stats) != statsDigest(harness.Stats) {
			fmt.Fprintf(o.log, "perfbench: cluster_10k: direct path differs from bench.MeasureForced on %s\n", cell.key())
			values["trace.direct_mismatches"]++
		}
		if i == 0 {
			values["memsim.new_s"] = r.newNet.Seconds()
			values["sim.events"] = float64(r.events)
			addStatsLayers(values, r.stats)
			continue
		}
		runs = append(runs, r.run.Seconds())
		resets = append(resets, r.reset.Seconds())
		warmCells = append(warmCells, wall)
	}
	values["mpi.run_s"] = median(runs)
	values["memsim.reset_s"] = median(resets)
	values["sim.host_ns_per_event"] = values["mpi.run_s"] * 1e9 / values["sim.events"]
	values["runtime.gc_cpu_frac"] = gc.frac()
	values["trace.overhead_frac"] = median(warmCells)/median(base) - 1
	if err := tr.write(filepath.Join(o.workdir, "trace", fmt.Sprintf("cluster_10k-%d.json", o.seed))); err != nil {
		return nil, err
	}
	return newReport(t, perLayer, values), nil
}
