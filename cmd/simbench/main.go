// Command simbench records the simulator's micro-benchmarks as
// BENCH_sim.json and gates them: ns/op, allocs/op and B/op of the hot paths
// and of Broadcast cells from 8 to 512 ranks, and the warm re-run
// allocations of 256-, 1,024- and 10,240-rank clusters, with three samples
// and a median each. End-to-end timings belong to perfbench (BENCHMARK.json).
//
// Usage:
//
//	simbench -o BENCH_sim.json          # record a new baseline
//	simbench -check BENCH_sim.json      # exit 1 if a gate fails
//	simbench -only cluster/bcast_10k    # run only cells with these name prefixes
//	simbench -diff old.json new.json    # per-metric median deltas
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/topology"
)

const (
	// schema names the BENCH_sim.json layout; -check refuses a baseline of
	// another schema rather than compare unlike numbers. v9 replaced v8's
	// per-scenario sections with one metric list.
	schema = "bench_sim/v9"
	// samples is how many times each cell runs.
	samples = 3
)

// Report is the BENCH_sim.json layout: the host it was measured on and one
// flat list of metrics.
type Report struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go"`
	CPUs       int      `json:"cpus"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Metrics    []Metric `json:"metrics"`
}

// Metric is one measured quantity: its samples, their median, and the gate
// -check holds it to (nil when it is recorded only).
type Metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Gate    *Gate     `json:"gate,omitempty"`
}

// Gate bounds a metric. Kind "max" is an absolute ceiling on every sample,
// the coldest first one included; kind "rel" allows the median at most the
// fraction Bound over the baseline report's median of the same metric.
// Gates are defined in code next to their cell; a baseline file supplies
// reference medians only.
type Gate struct {
	Kind  string  `json:"kind"`
	Bound float64 `json:"bound"`
}

var (
	// zeroAllocs pins a path allocation-free (slab events, arena-backed rank
	// state, pooled handles, flows and envelopes): one allocation per op is
	// a regression however cheap it is.
	zeroAllocs = &Gate{Kind: "max", Bound: 0}
	// within25 allows 25% over the baseline; the cluster cells' ReadMemStats
	// allocation deltas take it rather than an exact pin, as they carry a
	// small host-dependent runtime residue far below any arena leak.
	within25 = &Gate{Kind: "rel", Bound: 0.25}
)

// A cell is one scenario. Each sample call measures it once and returns one
// value per entry of metrics, which holds their names, units and gates.
type cell struct {
	name    string
	metrics []Metric
	sample  func() ([]float64, error)
}

// cells returns the cell table. Cells keep state between samples (a warm
// shard, a compiled cluster), so each run builds a fresh table.
func cells() []cell {
	dancerBox := topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 4, CoresPerSocket: 8,
		BusBW: 20e9, LinkBW: 12e9, CacheSize: 18 << 20, CachePortBW: 32e9,
		Spec: topology.Dancer().Spec,
	}
	manyCoreBox := func(sockets int) topology.SyntheticSpec {
		return topology.SyntheticSpec{
			Boards: 1, SocketsPerBoard: sockets, CoresPerSocket: 8,
			BusBW: 35e9, LinkBW: 18e9, CacheSize: 32 << 20, CachePortBW: 60e9,
			Spec: topology.ManyCore(128).Spec,
		}
	}
	return []cell{
		benchCell("memsim/copy_churn_64KiB", "", benchCopyChurn, nil, zeroAllocs),
		benchCell("sim/schedule_fire", "", benchScheduleFire, nil, zeroAllocs),
		benchCell("sim/park_wake", "", benchParkWake, within25, nil),
		benchCell("core/bcast_cell_64KiB", "", benchBcast(topology.Zoot(), true), nil, zeroAllocs),
		// The many-core cells pin their iteration count: the integer
		// allocs/op gate at 0 needs enough iterations that the slow tail of
		// pool growth (fifo backing arrays, map buckets) divides away,
		// which self-calibration on a fast host does not guarantee.
		benchCell("core/bcast_cell_128", "2000x", benchBcast(topology.ManyCore(128), false), nil, zeroAllocs),
		benchCell("core/bcast_cell_512", "1000x", benchBcast(topology.ManyCore(512), false), within25, zeroAllocs),
		clusterCell("cluster/bcast_256", 8, dancerBox, 6e9, 1*bench.MiB),
		clusterCell("cluster/bcast_1024", 16, manyCoreBox(8), 12e9, 1*bench.MiB),
		clusterCell("cluster/bcast_10k", 80, manyCoreBox(16), 12e9, 64*bench.KiB),
	}
}

// benchCell runs fn under testing.Benchmark at the given -test.benchtime
// ("" self-calibrates to about a second) and reports ns/op, allocs/op and
// B/op, gating the first two with nsGate and allocGate.
func benchCell(name, benchtime string, fn func(*testing.B), nsGate, allocGate *Gate) cell {
	return cell{
		name: name,
		metrics: []Metric{
			{Name: name + "/ns_per_op", Unit: "ns", Gate: nsGate},
			{Name: name + "/allocs_per_op", Unit: "count", Gate: allocGate},
			{Name: name + "/bytes_per_op", Unit: "bytes"},
		},
		sample: func() ([]float64, error) {
			if benchtime != "" {
				testing.Init()
				if err := flag.Set("test.benchtime", benchtime); err != nil {
					return nil, err
				}
				defer flag.Set("test.benchtime", "1s")
			}
			r := testing.Benchmark(fn)
			if r.N == 0 {
				return nil, fmt.Errorf("%s: benchmark failed", name)
			}
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			return []float64{ns, float64(r.AllocsPerOp()), float64(r.AllocedBytesPerOp())}, nil
		},
	}
}

// clusterCell is one hierarchical broadcast of size bytes over nodes
// copies of box. Its metric is the heap-allocation count of re-running the
// cell on the measurement shard a first, unmeasured run built and warmed:
// the arena's figure of merit at cluster scale.
func clusterCell(name string, nodes int, box topology.SyntheticSpec, switchBW float64, size int64) cell {
	var cfg *bench.Config
	return cell{
		name:    name,
		metrics: []Metric{{Name: name + "/allocs_per_op", Unit: "count", Gate: within25}},
		sample: func() ([]float64, error) {
			if cfg == nil {
				cl, err := syntheticCluster(nodes, box, switchBW)
				if err != nil {
					return nil, err
				}
				cfg = &bench.Config{Machine: cl.Global, Comp: bench.Hier(cl), Op: bench.OpBcast, Size: size, Iters: 1, OffCache: true}
				if _, err := bench.Measure(*cfg); err != nil {
					return nil, err
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := bench.Measure(*cfg)
			runtime.ReadMemStats(&after)
			return []float64{float64(after.Mallocs - before.Mallocs)}, err
		},
	}
}

// syntheticCluster compiles nodes copies of box behind one top-of-rack
// switch of bandwidth switchBW.
func syntheticCluster(nodes int, box topology.SyntheticSpec, switchBW float64) (*topology.Cluster, error) {
	m := topology.Synthetic(box)
	cfg := topology.ClusterConfig{Name: "simbench", Switch: &topology.SwitchSpec{Name: "tor", BW: switchBW, Lat: 2e-6}}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, topology.NodeSpec{Name: fmt.Sprintf("n%d", i), Machine: "box"})
	}
	return topology.CompileCluster(cfg, func(string) (*topology.Machine, error) { return m, nil })
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

// run returns instead of exiting so the deferred profile writers flush on
// every path, a failing gate included.
func run() error {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	checkPath := flag.String("check", "", "baseline BENCH_sim.json; fail if a gate fails against it")
	only := flag.String("only", "", "comma-separated cell-name prefixes to run (e.g. sim/,cluster/bcast_10k); empty runs every cell")
	diffMode := flag.Bool("diff", false, "print per-metric median deltas between two BENCH_sim.json files (old new) and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (all allocations, not just live) to this file at exit")
	flag.Parse()

	if *diffMode {
		if flag.NArg() != 2 {
			return errors.New("-diff needs exactly two arguments: old.json new.json")
		}
		o, errOld := load(flag.Arg(0))
		n, errNew := load(flag.Arg(1))
		if err := errors.Join(errOld, errNew); err != nil {
			return err
		}
		diff(os.Stdout, o, n)
		return nil
	}
	var base *Report
	if *checkPath != "" {
		var err error
		if base, err = load(*checkPath); err != nil {
			return err
		}
	}
	all := cells()
	todo := slices.DeleteFunc(slices.Clone(all), func(c cell) bool {
		hasPrefix := func(p string) bool { return strings.HasPrefix(c.name, strings.TrimSpace(p)) }
		return *only != "" && !slices.ContainsFunc(strings.Split(*only, ","), hasPrefix)
	})
	if len(todo) == 0 {
		return fmt.Errorf("no cell matches -only %q", *only)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeMemProfile(*memProfile)
	}

	rep := Report{Schema: schema, GoVersion: runtime.Version(), CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, c := range todo {
		ms := slices.Clone(c.metrics)
		for range samples {
			vals, err := c.sample()
			if err != nil {
				return err
			}
			for j, v := range vals {
				ms[j].Samples = append(ms[j].Samples, v)
				ms[j].Median = median(ms[j].Samples)
			}
		}
		rep.Metrics = append(rep.Metrics, ms...)
	}
	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	if base != nil {
		if err := check(all, &rep, base); err != nil {
			return fmt.Errorf("check against %s failed:\n%w", *checkPath, err)
		}
		fmt.Fprintf(os.Stderr, "simbench: every gate holds against %s\n", *checkPath)
	}
	return nil
}

// load reads a BENCH_sim.json report.
func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// median returns the middle sample (the upper one of two for even counts).
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	return s[len(s)/2]
}

// find returns the metric called name in r, or nil.
func (r *Report) find(name string) *Metric {
	if i := slices.IndexFunc(r.Metrics, func(m Metric) bool { return m.Name == name }); i >= 0 {
		return &r.Metrics[i]
	}
	return nil
}

// check holds cur to every gate the cells cs define, taking the reference
// medians of "rel" gates from base, and returns an error naming each failed
// gate. A gated metric missing from cur, or a "rel" reference missing from
// base, fails its gate.
func check(cs []cell, cur, base *Report) error {
	if base.Schema != schema {
		return fmt.Errorf("baseline schema %q, want %q", base.Schema, schema)
	}
	var errs []error
	for _, c := range cs {
		for _, m := range c.metrics {
			if m.Gate != nil {
				errs = append(errs, checkGate(m.Name, *m.Gate, cur, base))
			}
		}
	}
	return errors.Join(errs...)
}

// checkGate holds the metric called name in cur to g.
func checkGate(name string, g Gate, cur, base *Report) error {
	m := cur.find(name)
	if m == nil {
		return fmt.Errorf("%s: gated metric missing from this run", name)
	}
	if g.Kind == "max" {
		if worst := slices.Max(append([]float64{m.Median}, m.Samples...)); worst > g.Bound {
			return fmt.Errorf("%s: sample %.4g over max %.4g", name, worst, g.Bound)
		}
		return nil
	}
	b := base.find(name)
	if b == nil || b.Median <= 0 {
		return fmt.Errorf("%s: no baseline median to compare against", name)
	}
	if rel := m.Median/b.Median - 1; rel > g.Bound {
		return fmt.Errorf("%s: median %.4g is %+.1f%% over baseline %.4g (allowed %+.0f%%)",
			name, m.Median, 100*rel, b.Median, 100*g.Bound)
	}
	return nil
}

// diff prints every metric of n with its median against o's, "new" when o
// lacks it: the `make bench-diff` view to read next to a perf change.
// Regressions are -check's business, not diff's.
func diff(w io.Writer, o, n *Report) {
	fmt.Fprintf(w, "# BENCH_sim diff: %s -> %s\n", o.Schema, n.Schema)
	for _, m := range n.Metrics {
		old, delta := "", "new"
		if om := o.find(m.Name); om != nil {
			old, delta = fmt.Sprintf("%.4g", om.Median), ""
			if om.Median != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(m.Median/om.Median-1))
			}
		}
		fmt.Fprintf(w, "%-36s %12s -> %12.4g %-6s %s\n", m.Name, old, m.Median, m.Unit, delta)
	}
}

// writeMemProfile dumps the allocation profile (alloc_space/alloc_objects
// sample indexes included) to path.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err == nil {
		runtime.GC() // materialize the final heap state
		err = errors.Join(pprof.Lookup("allocs").WriteTo(f, 0), f.Close())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
	}
}

// benchCopyChurn is the end-to-end flow lifecycle under contention: each op
// is one 64 KiB copy (flow start, two rate recomputations, completion
// dispatch) with a second copy stream keeping the shared links loaded.
func benchCopyChurn(b *testing.B) {
	m := topology.IG()
	e := sim.NewEngine()
	n := memsim.New(e, m, nil)
	src := n.Alloc(m.Domains[0], bench.MiB, false)
	dst := n.Alloc(m.Domains[1], bench.MiB, false)
	src2 := n.Alloc(m.Domains[2], bench.MiB, false)
	dst2 := n.Alloc(m.Domains[3], bench.MiB, false)
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

// benchBcast is one measurement cell of the paper's component per op: a
// 64 KiB KNEM-Coll Broadcast across every rank of m, through the whole
// protocol stack (core, mpi, shm, knem, memsim, sim). With fresh set each
// call builds a new world warmed by one broadcast; otherwise, like the
// sharded sweep runner, it Resets one kept engine/net pair per call and
// warms it with 64, so allocs/op measures a reused arena-backed shard.
func benchBcast(m *topology.Machine, fresh bool) func(b *testing.B) {
	var eng *sim.Engine
	var net *memsim.Net
	return func(b *testing.B) {
		warmups := 1
		if !fresh {
			warmups = 64
			if eng == nil {
				eng = sim.NewEngine()
				net = memsim.New(eng, m, nil)
			} else {
				eng.Reset()
				net.Reset(nil)
			}
		}
		b.ReportAllocs()
		opts := mpi.Options{Machine: m, BTL: mpi.BTLSM, SHM: shm.Config{FragSize: 128 << 10}, Coll: core.New, Engine: eng, Net: net}
		_, _, err := mpi.Run(opts, func(r *mpi.Rank) {
			buf := r.Alloc(64 << 10).Whole()
			for i := 0; i < warmups; i++ {
				r.Bcast(buf, 0)
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
