package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/topology"
	"repro/internal/trace"
)

// A paper_sweep run times its set-up as paperSetups figures of
// paperSetupReps repetitions each: one set-up takes about 0.1 ms, too
// short to time alone.
const (
	paperSetups    = 9
	paperSetupReps = 200
)

// runPaper is the paper_sweep workload: rounds of uncached IG cells
// through bench.MeasureAllCtx, the `make results` path, at two-way cell
// parallelism. Even rounds run cold, after the shard pool is emptied; odd
// rounds reuse the warmed shards.
func runPaper(ctx context.Context, o options) (*report, error) {
	var rv *resolver
	var cells []cellSpec
	var cfgs []bench.Config
	setups := setupFigures(paperSetups, paperSetupReps, func() {
		rv = newResolver(nil)
		cells = paperCells(o.seed)
		cfgs = make([]bench.Config, len(cells))
		for i, c := range cells {
			cfgs[i] = rv.config(c)
		}
	})
	bench.SetParallel(workers())
	if o.trace {
		return tracePaper(ctx, o, rv, cells, cfgs, setups)
	}
	var t tally
	var cold, warm, rates []float64
	heap := startHeapPeak()
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < o.seconds; round++ {
		if round%2 == 0 {
			dropShards()
		}
		d, _ := paperRound(ctx, o, cells, cfgs, &t)
		rates = append(rates, float64(len(cells))/d)
		if round%2 == 0 {
			cold = append(cold, d)
		} else {
			warm = append(warm, d)
		}
	}
	peak := heap.Stop()
	return newReport(t, endToEnd, map[string]float64{
		"setup_s":         median(setups),
		"cold_batch_s":    median(cold),
		"warm_batch_s":    median(warm),
		"cells_per_s":     median(rates),
		"peak_heap_bytes": peak,
	}), nil
}

// paperRound runs one round through the measurement harness, checks every
// cell against the reference, and returns the round's host seconds and
// results. A round whose harness call fails counts all its cells failed.
func paperRound(ctx context.Context, o options, cells []cellSpec, cfgs []bench.Config, t *tally) (float64, []bench.Result) {
	t0 := time.Now()
	res, err := bench.MeasureAllCtx(ctx, cfgs)
	d := time.Since(t0).Seconds()
	if err != nil {
		fmt.Fprintln(o.log, "perfbench: paper_sweep round:", err)
		for range cells {
			t.add(false)
		}
		return d, nil
	}
	for i, c := range cells {
		ok := o.ref.matches(c, res[i].Seconds, &res[i].Stats)
		if !ok {
			fmt.Fprintf(o.log, "perfbench: paper_sweep: %s: %.9g s differs from the reference\n", c.key(), res[i].Seconds)
		}
		t.add(ok)
	}
	return d, res
}

// tracePaper is paper_sweep's traced run. It first runs a cold and a warm
// round untraced through the harness, for the tracing overhead base, the
// allocations per cell and the shard arena footprint. It then repeats the
// round on two direct-path workers, timing every layer call, and checks
// each cell against both the reference and the harness's result.
func tracePaper(ctx context.Context, o options, rv *resolver, cells []cellSpec, cfgs []bench.Config, setups []float64) (*report, error) {
	tr := newTracer()
	var t tally
	values := zeroLayers()
	// The machine build is paper_sweep's only topology work.
	var builds []float64
	for range paperSetups {
		sp := tr.begin("topology.IG", "", 0)
		topology.IG()
		builds = append(builds, tr.end(sp).Seconds())
	}
	values["topology.compile_s"] = median(builds)

	start := time.Now()
	gc := startGCWatch()
	dropShards()
	paperRound(ctx, o, cells, cfgs, &t)
	allocs0 := readRuntime(heapAllocsMetric)[0]
	base, harness := paperRound(ctx, o, cells, cfgs, &t)
	values["bench.allocs_per_cell"] = (readRuntime(heapAllocsMetric)[0] - allocs0) / float64(len(cells))
	values["bench.shard_arena_bytes"] = float64(bench.Shards().ArenaBytes)
	if harness == nil {
		return nil, fmt.Errorf("paper_sweep: the untraced harness round failed")
	}

	runners := make([]*directRunner, workers())
	for w := range runners {
		runners[w] = newDirectRunner(tr)
	}
	perName := map[string][]float64{}
	var walls []float64
	var newNet float64
	for round := 0; round < 1 || time.Since(start) < o.seconds; round++ {
		rs := tr.begin("paper_sweep.round", fmt.Sprint(round), 0)
		results := make([]directResult, len(cells))
		errs := make([]error, len(cells))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w, d := range runners {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := tr.begin("paper_sweep.worker", fmt.Sprint(w), rs)
				defer tr.end(ws)
				for i := int(next.Add(1) - 1); i < len(cells); i = int(next.Add(1) - 1) {
					results[i], errs[i] = d.run(cfgs[i], ws)
				}
			}()
		}
		wg.Wait()
		walls = append(walls, tr.end(rs).Seconds())
		sums := map[string]float64{}
		var total trace.Stats
		for i, c := range cells {
			r := results[i]
			ok := errs[i] == nil && o.ref.matches(c, r.seconds, &r.stats)
			t.add(ok)
			if errs[i] != nil {
				fmt.Fprintln(o.log, "perfbench:", errs[i])
			}
			if errs[i] == nil && (r.seconds != harness[i].Seconds || statsDigest(r.stats) != statsDigest(harness[i].Stats)) {
				fmt.Fprintf(o.log, "perfbench: paper_sweep: direct path differs from bench.MeasureAllCtx on %s\n", c.key())
				values["trace.direct_mismatches"]++
			}
			newNet += r.newNet.Seconds()
			sums["mpi.run_s"] += r.run.Seconds()
			sums["memsim.reset_s"] += r.reset.Seconds()
			sums["coll."+c.Comp+".host_s"] += r.run.Seconds()
			sums["coll."+c.Op+".host_s"] += r.run.Seconds()
			sums["sim.events"] += float64(r.events)
			total.Merge(&r.stats)
		}
		for name, v := range sums {
			perName[name] = append(perName[name], v)
		}
		if round == 0 {
			addStatsLayers(values, total)
		}
	}
	for name, vs := range perName {
		values[name] = median(vs)
	}
	values["memsim.new_s"] = newNet
	values["sim.host_ns_per_event"] = values["mpi.run_s"] * 1e9 / values["sim.events"]
	values["runtime.gc_cpu_frac"] = gc.frac()
	values["trace.overhead_frac"] = median(walls)/base - 1
	if err := tr.write(filepath.Join(o.workdir, "trace", fmt.Sprintf("paper_sweep-%d.json", o.seed))); err != nil {
		return nil, err
	}
	return newReport(t, perLayer, values), nil
}
