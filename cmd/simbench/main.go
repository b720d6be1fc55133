// Command simbench records the simulator's performance trajectory as
// BENCH_sim.json: ns/op and allocs/op for the hot paths (flow churn under
// contention, event scheduling, coroutine process handoff), the wall-clock
// time of a reference sweep run sequentially and with four concurrent
// measurement cells, and the fresh-versus-memoized wall clock of a small
// autotuner search.
//
// The emitted file carries the host's CPU count so speedup numbers can be
// judged honestly: on a single-CPU runner the parallel sweep cannot beat
// the sequential one no matter how good the runner is — it is therefore
// skipped (and annotated) when GOMAXPROCS < 2 instead of polluting the
// trajectory. The allocs/op and ns/op trajectory against the recorded
// baselines is machine-independent.
//
// Usage:
//
//	simbench                     # full run, JSON on stdout
//	simbench -short              # CI smoke: tiny sweep, tiny search grid
//	simbench -o BENCH_sim.json
//	simbench -check BENCH_sim.json   # regression gate against a baseline
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/serve"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tune/search"
)

const MB = 1 << 20

// Report is the BENCH_sim.json schema ("bench_sim/v8"; older v8 reports
// also carry a serial-vs-parallel section for the since-removed
// partitioned executor, which readers ignore; v7 predated the
// sim/g3-partition fingerprint (cluster cells now keep warm-up counters)
// and did not gate the cluster cells' allocs_per_op, v6 lacked the
// 10,240-rank cluster cell, the cluster cells' allocs_per_op, and ran the
// many-core Broadcast cells on fresh engines instead of reused
// arena-backed shards, v5 lacked the serving-tier cell
// (serve_batch_64cells: HTTP batch latency and cache hit rate through
// cmd/simd's stack), v4 lacked the many-core scale cells
// (core/bcast_cell_128, core/bcast_cell_512, the 1024-rank cluster cell)
// and the binary-heap queue baseline, v3 lacked the cluster section, v2
// lacked the core/bcast_cell_64KiB scenario and the zero-allocation gates,
// v1 lacked the tune_search section, the parallel-sweep skip annotation,
// and the channel-engine baseline).
type Report struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go"`
	CPUs       int         `json:"cpus"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Short      bool        `json:"short"`
	Benchmarks []BenchLine `json:"benchmarks"`
	Sweep      SweepLine   `json:"sweep"`
	Cluster    ClusterLine `json:"cluster"`
	// Cluster1024 is the 1024-rank hierarchical broadcast over sixteen
	// 64-core nodes — the "10k simulated ranks per cluster run" direction
	// at a size one CI runner can still time.
	Cluster1024 ClusterLine `json:"cluster_1024"`
	// Cluster10k is the ROADMAP's 10k-rank point itself: eighty 128-core
	// nodes, 10,240 ranks, one hierarchical broadcast — runnable inside
	// the CI smoke budget now that per-rank state is arena-backed.
	Cluster10k ClusterLine    `json:"cluster_10k"`
	TuneSearch TuneSearchLine `json:"tune_search"`
	// Serve is the serving-tier cell: a 64-cell batch posted to an
	// in-process simd server by concurrent clients, cold (populating the
	// layered caches) then warm. The warm round must be fully cache-served
	// — its hit rate is gated exactly at 1.0 by -check — while the latency
	// quantiles are recorded for the trajectory but not gated (wall-clock
	// noise on shared CI runners).
	Serve    ServeLine   `json:"serve_batch_64cells"`
	Baseline []BenchLine `json:"baseline_pre_optimization"`
	// BaselineChannels records the goroutine-channel engine's committed
	// numbers immediately before the coroutine switch, so this report
	// always shows the handoff and sweep trajectory across that change.
	BaselineChannels EngineBaseline `json:"baseline_channel_engine"`
	// BaselineHeapQueue records the committed numbers of the
	// container/heap event queue immediately before the switch to the
	// bucketed calendar queue, measured on the same scenarios.
	BaselineHeapQueue []BenchLine `json:"baseline_binary_heap_queue"`
}

// BenchLine is one micro-benchmark result (or recorded baseline).
type BenchLine struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// SweepLine is the reference sweep (imb -op bcast -machine IG) measured
// sequentially and with four concurrent cells. Speedup > 1 requires real
// parallelism, so the parallel leg only runs when GOMAXPROCS >= 2;
// otherwise ParallelSkipped names the reason and Parallel4/Speedup are
// omitted.
type SweepLine struct {
	Op              string  `json:"op"`
	Machine         string  `json:"machine"`
	Iters           int     `json:"iters"`
	Cells           int     `json:"cells"`
	Sequential      float64 `json:"seconds_sequential"`
	Parallel4       float64 `json:"seconds_parallel4,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
	ParallelSkipped string  `json:"parallel_skipped,omitempty"`
}

// ClusterLine is the many-rank cluster cell: one hierarchical broadcast
// over a synthetic multi-node cluster, timed once (wall clock) with its
// simulated completion time — the scale point none of the single-machine
// scenarios reach.
type ClusterLine struct {
	Nodes     int     `json:"nodes"`
	NP        int     `json:"np"`
	Op        string  `json:"op"`
	Size      int64   `json:"size"`
	Simulated float64 `json:"seconds_simulated"`
	Wall      float64 `json:"seconds_wall"`
	// AllocsPerOp is the heap-allocation count of re-running the same cell
	// on the warmed measurement shard (ReadMemStats delta over a second
	// Measure call) — the arena's figure of merit at cluster scale.
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// TuneSearchLine times one autotuner search twice against an empty
// persistent cache: the first run simulates every cell, the second is
// served entirely by the memoization layer.
type TuneSearchLine struct {
	Machine       string  `json:"machine"`
	Ops           string  `json:"ops"`
	Cells         int     `json:"cells"`
	SecondsFresh  float64 `json:"seconds_fresh"`
	SecondsCached float64 `json:"seconds_cached"`
	Speedup       float64 `json:"speedup"`
}

// ServeLine is the serving-tier cell (see Report.Serve): client-observed
// batch-request latency quantiles and the server-side cache hit rate for
// the cold (populating) and warm (fully cached) rounds.
type ServeLine struct {
	Machine      string  `json:"machine"`
	Cells        int     `json:"cells"` // cells per batch request
	Requests     int     `json:"requests"`
	ColdSeconds  float64 `json:"seconds_cold"` // wall clock of the populating round
	ColdHitRate  float64 `json:"cold_hit_rate"`
	WarmP50      float64 `json:"warm_p50_seconds"`
	WarmP99      float64 `json:"warm_p99_seconds"`
	WarmHitRate  float64 `json:"warm_hit_rate"`
	WarmSimCells int64   `json:"warm_sim_cells"` // cells the warm round re-simulated (must be 0)
}

// EngineBaseline is the committed channel-engine snapshot (see
// Report.BaselineChannels).
type EngineBaseline struct {
	ParkWakeNs             float64 `json:"park_wake_ns_per_op"`
	SweepSecondsSequential float64 `json:"sweep_seconds_sequential"`
}

// baseline numbers measured on this codebase immediately before the
// allocation-free solver + pooled-event optimizations (same scenarios,
// benchtime 200ms, GOMAXPROCS=1). Kept in the report so any future run
// shows the trajectory without digging through git history.
var baseline = []BenchLine{
	{Name: "memsim/copy_churn_64KiB", NsPerOp: 5278, AllocsPerOp: 34, BytesPerOp: 2772},
	{Name: "sim/schedule_fire", NsPerOp: 67.4, AllocsPerOp: 1, BytesPerOp: 80},
	{Name: "sim/park_wake", NsPerOp: 1218, AllocsPerOp: 4, BytesPerOp: 248},
	{Name: "memsim/recompute_rates_flows48", NsPerOp: 15690, AllocsPerOp: 11, BytesPerOp: 3176},
	{Name: "memsim/reschedule_flows48", NsPerOp: 13399, AllocsPerOp: 13, BytesPerOp: 3560},
}

// channelBaseline is the committed BENCH_sim.json of the goroutine-channel
// engine, recorded just before the switch to iter.Pull coroutines.
var channelBaseline = EngineBaseline{
	ParkWakeNs:             1421.9479311770851,
	SweepSecondsSequential: 2.793275014,
}

// heapBaseline is the committed snapshot of the container/heap binary-heap
// event queue, measured on this codebase immediately before the switch to
// the bucketed calendar queue (benchtime ~1s, GOMAXPROCS=1). The
// schedule_fire alloc is the per-event box the heap path could never shed;
// the many-core cells are dominated by queue traffic, which is where the
// calendar queue pays off.
var heapBaseline = []BenchLine{
	{Name: "sim/schedule_fire", NsPerOp: 70.9, AllocsPerOp: 1, BytesPerOp: 80},
	{Name: "core/bcast_cell_64KiB", NsPerOp: 25313, AllocsPerOp: 0, BytesPerOp: 0},
	{Name: "core/bcast_cell_128", NsPerOp: 1951049, AllocsPerOp: 60, BytesPerOp: 1806},
	{Name: "core/bcast_cell_512", NsPerOp: 25023983, AllocsPerOp: 284, BytesPerOp: 9034},
}

func main() {
	short := flag.Bool("short", false, "CI smoke mode: tiny sweep and search grid, capped benchtime")
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	check := flag.String("check", "", "baseline BENCH_sim.json to compare against; exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0.25, "with -check: allowed relative regression before failing")
	minCPUs := flag.Int("min-cpus", 0, "fail unless the host has at least this many CPUs (CI guard: the parallel sweep must not be skipped silently)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (all allocations, not just live) to this file at exit")
	only := flag.String("only", "", "comma-separated scenario filter (benchmark names, sweep, cluster, cluster_1024, cluster_10k, tune_search, serve); empty runs everything")
	diff := flag.Bool("diff", false, "print per-metric deltas between two BENCH_sim.json files (old new) and exit")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "simbench: -diff needs exactly two arguments: old.json new.json")
			os.Exit(1)
		}
		if err := printDiff(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		return
	}

	if *minCPUs > 0 && runtime.NumCPU() < *minCPUs {
		fmt.Fprintf(os.Stderr, "simbench: host has %d CPU(s), -min-cpus %d: a single-core runner would skip the parallel sweep instead of measuring it\n",
			runtime.NumCPU(), *minCPUs)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeMemProfile(*memProfile)
	}

	var base *Report
	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		base = &Report{}
		if err := json.Unmarshal(data, base); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %s: %v\n", *check, err)
			os.Exit(1)
		}
	}

	rep := Report{
		Schema:            "bench_sim/v8",
		GoVersion:         runtime.Version(),
		CPUs:              runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Short:             *short,
		Baseline:          baseline,
		BaselineChannels:  channelBaseline,
		BaselineHeapQueue: heapBaseline,
	}

	want := func(name string) bool {
		if *only == "" {
			return true
		}
		for _, n := range strings.Split(*only, ",") {
			if strings.TrimSpace(n) == name {
				return true
			}
		}
		return false
	}

	// testing.Benchmark self-calibrates to ~1s per scenario — short
	// enough that even the CI smoke job runs the full micro set; -short
	// only trims the sweep and search below. The many-core cells instead
	// pin their iteration count (see the iters arguments): the integer
	// allocs/op gate at 0 needs enough measured iterations that the slow
	// tail of pool growth (fifo backing arrays, map buckets) divides away,
	// which self-calibration on a fast host does not guarantee.
	run := func(name string, iters string, fn func(b *testing.B)) {
		if !want(name) {
			return
		}
		if iters != "" {
			testing.Init()
			if err := flag.Set("test.benchtime", iters); err != nil {
				fmt.Fprintln(os.Stderr, "simbench:", err)
				os.Exit(1)
			}
			defer flag.Set("test.benchtime", "1s")
		}
		r := testing.Benchmark(fn)
		rep.Benchmarks = append(rep.Benchmarks, BenchLine{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}

	run("memsim/copy_churn_64KiB", "", benchCopyChurn)
	run("sim/schedule_fire", "", benchScheduleFire)
	run("sim/park_wake", "", benchParkWake)
	run("core/bcast_cell_64KiB", "", benchBcastCell)
	run("core/bcast_cell_128", "2000x", benchBcastCellManyCore(128))
	run("core/bcast_cell_512", "1000x", benchBcastCellManyCore(512))

	if want("sweep") {
		rep.Sweep = measureSweep(*short)
	}
	if want("cluster") {
		rep.Cluster = measureCluster(*short)
	}
	if want("cluster_1024") {
		rep.Cluster1024 = measureCluster1024(*short)
	}
	if want("cluster_10k") {
		rep.Cluster10k = measureCluster10k()
	}
	if want("tune_search") {
		rep.TuneSearch = measureTuneSearch(*short)
	}
	if want("serve") {
		rep.Serve = measureServe(*short)
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	if base != nil && !checkAgainst(&rep, base, *tolerance) {
		// os.Exit skips the deferred profile writers; flush them first so a
		// failing gate still leaves usable profiles behind.
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			writeMemProfile(*memProfile)
		}
		os.Exit(1)
	}
}

// writeMemProfile dumps the allocation profile (alloc_space/alloc_objects
// sample indexes included) to path.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize the final heap state
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
	}
}

// checkAgainst is the bench-smoke regression gate: the handoff
// micro-benchmark and the sequential sweep wall clock must stay within
// tolerance of the baseline report, and the zero-allocation scenarios must
// stay at exactly 0 allocs/op — an allocation on those paths is a
// regression however cheap it is, so no tolerance applies. Comparisons
// whose scenarios differ (short vs full sweep) are skipped with a note
// rather than compared apples-to-oranges.
func checkAgainst(cur, base *Report, tol float64) bool {
	ok := true
	// The copy/cache hot path, the event queue, and the steady-state
	// Broadcast cells are pinned allocation-free: events come from the
	// engine's slab, per-rank and component state from the engine's arena,
	// and Pending handles, cache entries, flows, OOB envelopes, and waiter
	// records are all pooled. Since the arena conversion the 128/512-rank
	// many-core cells hold the same exact-0 pin as the small cell — they
	// run on a reused shard with a pinned iteration count precisely so
	// world-scale structure growth amortizes below one alloc per op.
	for _, pin := range []struct {
		name   string
		budget int64
	}{
		{"memsim/copy_churn_64KiB", 0}, {"sim/schedule_fire", 0},
		{"core/bcast_cell_64KiB", 0},
		{"core/bcast_cell_128", 0}, {"core/bcast_cell_512", 0},
	} {
		found := false
		for _, b := range cur.Benchmarks {
			if b.Name != pin.name {
				continue
			}
			found = true
			status := "ok"
			if b.AllocsPerOp > pin.budget {
				status = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(os.Stderr, "simbench: check: %s allocs/op: %d (budget %d): %s\n",
				pin.name, b.AllocsPerOp, pin.budget, status)
		}
		if !found {
			fmt.Fprintf(os.Stderr, "simbench: check: %s: scenario missing from this run\n", pin.name)
			ok = false
		}
	}
	compare := func(what string, curV, baseV float64) {
		if baseV <= 0 {
			fmt.Fprintf(os.Stderr, "simbench: check: %s: no baseline value, skipped\n", what)
			return
		}
		rel := curV/baseV - 1
		status := "ok"
		if rel > tol {
			status = "REGRESSION"
			ok = false
		}
		fmt.Fprintf(os.Stderr, "simbench: check: %s: %.4g vs baseline %.4g (%+.1f%%, tolerance %.0f%%): %s\n",
			what, curV, baseV, 100*rel, 100*tol, status)
	}
	find := func(r *Report, name string) float64 {
		for _, b := range r.Benchmarks {
			if b.Name == name {
				return b.NsPerOp
			}
		}
		return 0
	}
	// Serving-tier gate: the warm round must be answered entirely from the
	// layered caches — an exact 1.0, no tolerance, because a single
	// re-simulated cell means the determinism/caching contract broke (key
	// instability, a dropped memo write, an LRU that stopped admitting).
	// The latency quantiles are trajectory data only, never gated.
	if cur.Serve.Requests > 0 {
		status := "ok"
		if cur.Serve.WarmHitRate != 1.0 || cur.Serve.WarmSimCells != 0 {
			status = "REGRESSION"
			ok = false
		}
		fmt.Fprintf(os.Stderr, "simbench: check: serve warm hit rate: %.4f (%d re-simulated; must be 1.0000 / 0): %s\n",
			cur.Serve.WarmHitRate, cur.Serve.WarmSimCells, status)
		fmt.Fprintf(os.Stderr, "simbench: check: serve warm p50/p99: %.4gs / %.4gs (recorded, not gated)\n",
			cur.Serve.WarmP50, cur.Serve.WarmP99)
	} else {
		fmt.Fprintln(os.Stderr, "simbench: check: serve: scenario missing from this run")
		ok = false
	}
	compare("sim/park_wake ns/op", find(cur, "sim/park_wake"), find(base, "sim/park_wake"))
	compare("core/bcast_cell_512 ns/op", find(cur, "core/bcast_cell_512"), find(base, "core/bcast_cell_512"))
	if cur.Short == base.Short && cur.Sweep.Cells == base.Sweep.Cells {
		compare("sweep seconds_sequential", cur.Sweep.Sequential, base.Sweep.Sequential)
	} else {
		fmt.Fprintln(os.Stderr, "simbench: check: sweep shapes differ (short/full), wall-clock comparison skipped")
	}
	if cur.Cluster1024.Nodes == base.Cluster1024.Nodes && cur.Cluster1024.Size == base.Cluster1024.Size {
		compare("cluster_1024 seconds_wall", cur.Cluster1024.Wall, base.Cluster1024.Wall)
	} else {
		fmt.Fprintln(os.Stderr, "simbench: check: cluster_1024 shapes differ (short/full), wall-clock comparison skipped")
	}
	if cur.Cluster10k.Nodes == base.Cluster10k.Nodes && cur.Cluster10k.Size == base.Cluster10k.Size {
		compare("cluster_10k seconds_wall", cur.Cluster10k.Wall, base.Cluster10k.Wall)
	} else {
		fmt.Fprintln(os.Stderr, "simbench: check: cluster_10k shapes differ (old baseline?), wall-clock comparison skipped")
	}
	// Cluster cells carry a tolerant allocs_per_op gate rather than the
	// micro-benchmarks' exact-0 pin: the number is a ReadMemStats delta
	// over one warmed re-run, so background runtime work (map growth past
	// a high-water mark, timer and GC bookkeeping) contributes a small
	// machine-dependent residue on top of the arena-backed zero. The same
	// -tolerance as the wall clocks applies; a real leak (per-rank or
	// per-flow state escaping the arenas) shows up orders of magnitude
	// above it.
	allocGate := func(name string, curLine, baseLine ClusterLine) {
		if baseLine.NP == 0 || baseLine.AllocsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "simbench: check: %s allocs_per_op: no baseline value (old schema?), skipped\n", name)
			return
		}
		if curLine.Nodes != baseLine.Nodes || curLine.Size != baseLine.Size {
			fmt.Fprintf(os.Stderr, "simbench: check: %s shapes differ, allocs_per_op comparison skipped\n", name)
			return
		}
		compare(name+" allocs_per_op", float64(curLine.AllocsPerOp), float64(baseLine.AllocsPerOp))
	}
	allocGate("cluster", cur.Cluster, base.Cluster)
	allocGate("cluster_1024", cur.Cluster1024, base.Cluster1024)
	allocGate("cluster_10k", cur.Cluster10k, base.Cluster10k)
	return ok
}

// printDiff loads two BENCH_sim.json files and prints per-metric deltas —
// the `make bench-diff` view a reviewer reads next to a perf PR. It never
// fails on regressions; that is -check's job.
func printDiff(oldPath, newPath string) error {
	load := func(p string) (*Report, error) {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := &Report{}
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return r, nil
	}
	o, err := load(oldPath)
	if err != nil {
		return err
	}
	n, err := load(newPath)
	if err != nil {
		return err
	}
	pct := func(ov, nv float64) string {
		if ov <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*(nv/ov-1))
	}
	fmt.Printf("# BENCH_sim diff: %s (%s) -> %s (%s)\n", oldPath, o.Schema, newPath, n.Schema)
	oldBench := map[string]BenchLine{}
	for _, b := range o.Benchmarks {
		oldBench[b.Name] = b
	}
	for _, b := range n.Benchmarks {
		ob, found := oldBench[b.Name]
		if !found {
			fmt.Printf("%-28s ns/op %12.0f  allocs/op %5d  (new scenario)\n", b.Name, b.NsPerOp, b.AllocsPerOp)
			continue
		}
		fmt.Printf("%-28s ns/op %12.0f -> %12.0f (%s)  allocs/op %5d -> %5d\n",
			b.Name, ob.NsPerOp, b.NsPerOp, pct(ob.NsPerOp, b.NsPerOp), ob.AllocsPerOp, b.AllocsPerOp)
	}
	fmt.Printf("%-28s %12.4gs -> %12.4gs (%s)\n", "sweep sequential",
		o.Sweep.Sequential, n.Sweep.Sequential, pct(o.Sweep.Sequential, n.Sweep.Sequential))
	// Sections absent from the old file (a report predating their schema
	// version unmarshals them as zero values) print n/a on the old side
	// instead of a bogus 0 -> N delta.
	cluster := func(name string, oc, nc ClusterLine) {
		if nc.NP == 0 {
			return
		}
		if oc.NP == 0 {
			fmt.Printf("%-28s wall %8s -> %8.4gs (n/a)  allocs/op %7s -> %7d  [np=%d] (no baseline: old schema)\n",
				name, "n/a", nc.Wall, "n/a", nc.AllocsPerOp, nc.NP)
			return
		}
		fmt.Printf("%-28s wall %8.4gs -> %8.4gs (%s)  allocs/op %7d -> %7d  [np=%d]\n",
			name, oc.Wall, nc.Wall, pct(oc.Wall, nc.Wall), oc.AllocsPerOp, nc.AllocsPerOp, nc.NP)
	}
	cluster("cluster", o.Cluster, n.Cluster)
	cluster("cluster_1024", o.Cluster1024, n.Cluster1024)
	cluster("cluster_10k", o.Cluster10k, n.Cluster10k)
	if n.TuneSearch.Cells > 0 {
		if o.TuneSearch.Cells > 0 {
			fmt.Printf("%-28s %12.4gx -> %12.4gx\n", "tune_search speedup", o.TuneSearch.Speedup, n.TuneSearch.Speedup)
		} else {
			fmt.Printf("%-28s %12s -> %12.4gx (no baseline: old schema)\n", "tune_search speedup", "n/a", n.TuneSearch.Speedup)
		}
	}
	if n.Serve.Requests > 0 {
		if o.Serve.Requests > 0 {
			fmt.Printf("%-28s p50 %.4gs -> %.4gs (%s)  p99 %.4gs -> %.4gs  hit %.4f -> %.4f\n",
				"serve warm", o.Serve.WarmP50, n.Serve.WarmP50, pct(o.Serve.WarmP50, n.Serve.WarmP50),
				o.Serve.WarmP99, n.Serve.WarmP99, o.Serve.WarmHitRate, n.Serve.WarmHitRate)
		} else {
			fmt.Printf("%-28s p50 %s -> %.4gs (n/a)  p99 %s -> %.4gs  hit %s -> %.4f (no baseline: old schema)\n",
				"serve warm", "n/a", n.Serve.WarmP50, "n/a", n.Serve.WarmP99, "n/a", n.Serve.WarmHitRate)
		}
	}
	return nil
}

// benchCopyChurn is the end-to-end flow lifecycle under contention: each op
// is one 64 KiB copy (flow start, two rate recomputations, completion
// dispatch) with a second copy stream keeping the shared links loaded.
func benchCopyChurn(b *testing.B) {
	m := topology.IG()
	e := sim.NewEngine()
	n := memsim.New(e, m, nil)
	src := n.Alloc(m.Domains[0], MB, false)
	dst := n.Alloc(m.Domains[1], MB, false)
	src2 := n.Alloc(m.Domains[2], MB, false)
	dst2 := n.Alloc(m.Domains[3], MB, false)
	b.ReportAllocs()
	b.ResetTimer()
	e.Spawn("bg", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			n.Copy(p, m.Cores[12], dst2.View(0, 64<<10), src2.View(0, 64<<10))
		}
	})
	e.Spawn("fg", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			n.Copy(p, m.Cores[0], dst.View(0, 64<<10), src.View(0, 64<<10))
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchScheduleFire is the engine's bare event lifecycle.
func benchScheduleFire(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(1e-9, tick)
		}
	}
	e.Schedule(1e-9, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchParkWake is one process handoff per op: a parked process woken by
// another — two coroutine switches plus the wake/wait event lifecycle,
// the primitive under every message and copy completion.
func benchParkWake(b *testing.B) {
	e := sim.NewEngine()
	var waiter *sim.Proc
	b.ReportAllocs()
	b.ResetTimer()
	waiter = e.Spawn("waiter", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Park("bench")
		}
	})
	e.Spawn("waker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			waiter.Wake()
			p.Wait(1e-9)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchBcastCell is one full measurement cell of the paper's component: a
// 64 KiB KNEM-Coll Broadcast across all of Zoot's ranks per op — region
// registration, out-of-band cookie fan-out, every receiver's kernel-assisted
// copy, ACK collection, deregistration. The whole protocol stack (core,
// mpi, shm, knem, memsim, sim) must stay allocation-free in steady state;
// the warm-up iteration takes the one-time pool fills off the measurement.
func benchBcastCell(b *testing.B) {
	m := topology.Zoot()
	b.ReportAllocs()
	_, _, err := mpi.Run(mpi.Options{
		Machine: m,
		BTL:     mpi.BTLSM,
		SHM:     shm.Config{FragSize: 128 << 10},
		Coll:    core.New,
	}, func(r *mpi.Rank) {
		buf := r.Alloc(64 << 10).Whole()
		r.Bcast(buf, 0) // warm-up: fill the free lists
		r.Barrier()
		if r.ID() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			r.Bcast(buf, 0)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchBcastCellManyCore is benchBcastCell at the ROADMAP's many-core
// scale: one 64 KiB KNEM-Coll Broadcast across all 128 or 512 ranks of a
// ManyCore node per op. These are the cells the bucketed event queue and
// the arena are gated on — at 512 ranks every op pushes tens of thousands
// of events and flow reprices through the engine.
//
// Like the sharded sweep runner, the cell keeps one engine/net pair and
// Resets it per invocation, so the reported allocs/op measures repeat
// runs on a reused arena-backed shard — testing.Benchmark's calibration
// pass doubles as shard warm-up.
func benchBcastCellManyCore(cores int) func(b *testing.B) {
	var (
		m   *topology.Machine
		eng *sim.Engine
		net *memsim.Net
	)
	return func(b *testing.B) {
		if eng == nil {
			m = topology.ManyCore(cores)
			eng = sim.NewEngine()
			net = memsim.New(eng, m, nil)
		} else {
			eng.Reset()
			net.Reset(nil)
		}
		b.ReportAllocs()
		_, _, err := mpi.Run(mpi.Options{
			Machine: m,
			BTL:     mpi.BTLSM,
			SHM:     shm.Config{FragSize: 128 << 10},
			Coll:    core.New,
			Engine:  eng,
			Net:     net,
		}, func(r *mpi.Rank) {
			buf := r.Alloc(64 << 10).Whole()
			for i := 0; i < 64; i++ {
				r.Bcast(buf, 0) // warm-up: fill the free lists
			}
			r.Barrier()
			if r.ID() == 0 {
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				r.Bcast(buf, 0)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// measureSweep times the reference sweep — Broadcast across the paper's
// five components on IG — sequentially and, when the host can actually run
// cells concurrently, with four concurrent cells.
func measureSweep(short bool) SweepLine {
	m := topology.IG()
	sizes := bench.PaperSizes()
	comps := bench.PaperComponents()
	if short {
		sizes = []int64{64 * bench.KiB, 1 * bench.MiB}
		comps = comps[:2]
	}
	var cfgs []bench.Config
	for _, c := range comps {
		for _, sz := range sizes {
			cfgs = append(cfgs, bench.Config{
				Machine: m, Comp: c, Op: bench.OpBcast, Size: sz,
				Iters: 1, OffCache: true,
			})
		}
	}
	timeIt := func(par int) float64 {
		bench.SetParallel(par)
		defer bench.SetParallel(1)
		start := time.Now()
		bench.MeasureAll(cfgs)
		return time.Since(start).Seconds()
	}
	line := SweepLine{
		Op: "bcast", Machine: m.Name, Iters: 1, Cells: len(cfgs),
		Sequential: timeIt(1),
	}
	if runtime.GOMAXPROCS(0) < 2 {
		// A 1-CPU box time-slices the four workers over one core; the
		// measured "speedup" would only record scheduling overhead.
		line.ParallelSkipped = fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
		return line
	}
	line.Parallel4 = timeIt(4)
	line.Speedup = line.Sequential / line.Parallel4
	return line
}

// measureCluster times the 256-rank hierarchical broadcast cell: 8
// synthetic 32-core nodes behind one switch, the hierarchical tree family
// end to end through the measurement harness (full mode; -short drops to
// 64 ranks over 4 nodes so the CI smoke stays fast).
func measureCluster(short bool) ClusterLine {
	nodes, op, size := 8, bench.OpBcast, int64(1*bench.MiB)
	if short {
		nodes, size = 4, 64*bench.KiB
	}
	box := topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 4, CoresPerSocket: 8,
		BusBW: 20e9, LinkBW: 12e9,
		CacheSize: 18 << 20, CachePortBW: 32e9,
		Spec: topology.Dancer().Spec,
	})
	cfg := topology.ClusterConfig{
		Name:   "simbench",
		Switch: &topology.SwitchSpec{Name: "tor", BW: 6e9, Lat: 2e-6},
	}
	if short {
		box = topology.Synthetic(topology.SyntheticSpec{
			Boards: 1, SocketsPerBoard: 2, CoresPerSocket: 8,
			BusBW: 20e9, LinkBW: 12e9,
			CacheSize: 18 << 20, CachePortBW: 32e9,
			Spec: topology.Dancer().Spec,
		})
	}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, topology.NodeSpec{Name: fmt.Sprintf("n%d", i), Machine: "box"})
	}
	cl, err := topology.CompileCluster(cfg, func(string) (*topology.Machine, error) { return box, nil })
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	return runClusterCell(cl, op, size, nodes)
}

// runClusterCell runs one cluster cell twice through the measurement
// harness: a cold run for the wall clock (shard construction included, as
// a fresh process would pay it) and a repeat run on the now-warmed shard
// whose ReadMemStats delta is the cell's allocs_per_op — the arena's
// figure of merit at cluster scale.
func runClusterCell(cl *topology.Cluster, op bench.Op, size int64, nodes int) ClusterLine {
	cfg := bench.Config{
		Machine: cl.Global, Comp: bench.Hier(cl), Op: op, Size: size, Iters: 1, OffCache: true,
	}
	start := time.Now()
	res, err := bench.Measure(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	wall := time.Since(start).Seconds()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := bench.Measure(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	runtime.ReadMemStats(&after)
	return ClusterLine{
		Nodes: nodes, NP: cl.Global.NCores(), Op: string(op), Size: size,
		Simulated: res.Seconds, Wall: wall,
		AllocsPerOp: int64(after.Mallocs - before.Mallocs),
	}
}

// measureCluster1024 times the 1024-rank hierarchical broadcast cell:
// sixteen 64-core nodes behind one switch (-short drops to 8 nodes / 512
// ranks so the smoke stays fast; the -check gate only compares matching
// shapes).
func measureCluster1024(short bool) ClusterLine {
	nodes, op, size := 16, bench.OpBcast, int64(1*bench.MiB)
	if short {
		nodes, size = 8, 64*bench.KiB
	}
	box := topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 8, CoresPerSocket: 8,
		BusBW: 35e9, LinkBW: 18e9,
		CacheSize: 32 << 20, CachePortBW: 60e9,
		Spec: topology.ManyCore(128).Spec,
	})
	cfg := topology.ClusterConfig{
		Name:   "simbench1024",
		Switch: &topology.SwitchSpec{Name: "tor", BW: 12e9, Lat: 2e-6},
	}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, topology.NodeSpec{Name: fmt.Sprintf("n%d", i), Machine: "box"})
	}
	cl, err := topology.CompileCluster(cfg, func(string) (*topology.Machine, error) { return box, nil })
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	return runClusterCell(cl, op, size, nodes)
}

// measureCluster10k is the ROADMAP's 10k-rank cluster point: eighty
// 128-core nodes (10,240 ranks) behind one switch, one hierarchical
// 64 KiB broadcast. It keeps the same shape in -short mode on purpose —
// the cell exists to prove the full 10,240-rank run fits the CI smoke
// budget, so shrinking it would defeat it.
func measureCluster10k() ClusterLine {
	cl, nodes := cluster10k()
	return runClusterCell(cl, bench.OpBcast, 64*bench.KiB, nodes)
}

// cluster10k compiles the canonical 10,240-rank cluster shape of the
// cluster_10k cell.
func cluster10k() (*topology.Cluster, int) {
	nodes := 80
	box := topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 16, CoresPerSocket: 8,
		BusBW: 35e9, LinkBW: 18e9,
		CacheSize: 32 << 20, CachePortBW: 60e9,
		Spec: topology.ManyCore(128).Spec,
	})
	cfg := topology.ClusterConfig{
		Name:   "simbench10k",
		Switch: &topology.SwitchSpec{Name: "tor", BW: 12e9, Lat: 2e-6},
	}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, topology.NodeSpec{Name: fmt.Sprintf("n%d", i), Machine: "box"})
	}
	cl, err := topology.CompileCluster(cfg, func(string) (*topology.Machine, error) { return box, nil })
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	return cl, nodes
}

// serveBatch is the serving-tier reference batch: 64 cells (two
// components x two ops x sixteen sizes) on Zoot at np=8 — small enough
// that the cold round finishes in CI, wide enough that the warm round's
// hit rate actually exercises the sharded LRU and memo layers (-short
// trims to 16 cells).
func serveBatch(short bool) serve.BatchRequest {
	comps := []string{"KNEM-Coll", "Tuned-SM"}
	ops := []string{"bcast", "gather"}
	nsizes := 16
	if short {
		nsizes = 4
	}
	req := serve.BatchRequest{Machine: "Zoot"}
	for _, comp := range comps {
		for _, op := range ops {
			for i := 0; i < nsizes; i++ {
				req.Cells = append(req.Cells, serve.CellSpec{
					Comp: comp, Op: op, Size: 1 << (10 + i), NP: 8, Iters: 1,
				})
			}
		}
	}
	return req
}

// measureServe boots an in-process simd server over a fresh temporary
// cache and drives the load harness through real HTTP: a cold round that
// populates the layered caches, then a timed warm round that must be
// served entirely without re-simulation. The harness itself asserts
// byte-identical responses across every repetition and concurrency level.
func measureServe(short bool) ServeLine {
	dir, err := os.MkdirTemp("", "simbench-serve-cache-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	if err := bench.EnableCache(dir); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	defer bench.DisableCache()
	bench.SetParallel(runtime.GOMAXPROCS(0))
	defer bench.SetParallel(1)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: serve.New(serve.Options{}).Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	req := serveBatch(short)
	ctx := context.Background()
	t0 := time.Now()
	cold, err := serve.Load(ctx, serve.LoadOptions{BaseURL: base, Request: req, Concurrency: 4, Repetitions: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench: serve cold round:", err)
		os.Exit(1)
	}
	coldWall := time.Since(t0).Seconds()

	simsBefore := fetchSimCount(base)
	warm, err := serve.Load(ctx, serve.LoadOptions{BaseURL: base, Request: req, Concurrency: 8, Repetitions: 2})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench: serve warm round:", err)
		os.Exit(1)
	}
	if string(warm.Body) != string(cold.Body) {
		fmt.Fprintln(os.Stderr, "simbench: serve warm response differs from cold response")
		os.Exit(1)
	}
	return ServeLine{
		Machine: req.Machine, Cells: len(req.Cells), Requests: cold.Requests + warm.Requests,
		ColdSeconds: coldWall, ColdHitRate: cold.HitRate,
		WarmP50: warm.P50Seconds, WarmP99: warm.P99Seconds, WarmHitRate: warm.HitRate,
		WarmSimCells: fetchSimCount(base) - simsBefore,
	}
}

// fetchSimCount reads the server's cumulative simulated-cell count (cells
// that reached the runner and were not memo hits).
func fetchSimCount(base string) int64 {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	return st.SimLatency.Count - st.Cache.SimHits
}

// measureTuneSearch runs one autotuner search twice against a fresh
// temporary cache directory: the first run simulates every cell, the
// second replays them all from the memoization layer.
func measureTuneSearch(short bool) TuneSearchLine {
	m := topology.Zoot()
	o := search.Options{
		Machine: m,
		Ops:     []string{"bcast", "gather"},
		Sizes:   []int64{64 * bench.KiB, 256 * bench.KiB, 1 * bench.MiB},
	}
	if short {
		o.Ops = []string{"bcast"}
		o.Sizes = []int64{64 * bench.KiB, 1 * bench.MiB}
	}
	dir, err := os.MkdirTemp("", "simbench-cache-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	if err := bench.EnableCache(dir); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	defer bench.DisableCache()
	timeIt := func() (float64, int) {
		// Drop the in-memory layer so the second run exercises the
		// persistent path, like a separate process would.
		bench.DisableCache()
		if err := bench.EnableCache(dir); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		start := time.Now()
		t, err := search.Run(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		return time.Since(start).Seconds(), len(t.Cells)
	}
	fresh, cells := timeIt()
	cached, _ := timeIt()
	return TuneSearchLine{
		Machine: m.Name, Ops: strings.Join(o.Ops, ","), Cells: cells,
		SecondsFresh: fresh, SecondsCached: cached, Speedup: fresh / cached,
	}
}
