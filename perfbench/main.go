// Command perfbench is the repository's benchmark: it runs one named
// workload through the simulator's public entry points for a fixed host
// time, checks every simulated result against the pinned reference, and
// prints its metrics by name and unit, ending with one JSON result line.
//
//	go run . --workload paper_sweep --seed 1 --seconds 30 --trace 0
//
// run from this directory (perfbench/run.py builds and runs it from the
// repository root). --trace 1 runs the traced variant, which reports the
// per-layer metrics instead of the end-to-end ones and writes its spans
// under -workdir. -pin FILE regenerates the reference table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/topology"
)

// options is one benchmark invocation.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string
	ref     referenceTable
	log     io.Writer
}

// workloads maps each workload name to its runner. A runner returns the
// result line for its run: end-to-end metrics, or per-layer ones when
// o.trace is set.
var workloads = map[string]func(context.Context, options) (*report, error){
	"paper_sweep":  runPaper,
	"cluster_10k":  runCluster,
	"served_batch": runServed,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: paper_sweep, cluster_10k or served_batch")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 30, "host seconds to measure for")
	traced := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for memo caches and span files")
	pin := fs.String("pin", "", "simulate every cell and write the reference table to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *pin != "" {
		if err := pinReference(ctx, *pin); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload paper_sweep|cluster_10k|served_batch, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := runner(ctx, options{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1,
		workdir: *workdir, ref: ref, log: stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", *workload, d.Name)
			return 1
		}
		fmt.Fprintf(stderr, "%-26s %-14.6g %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(stderr, "%-26s %d of %d\n", "failed cells", rep.Failed, rep.Attempted)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// newReport starts a result line holding the given metric values, in the
// units of defs; names missing from values are not filled in.
func newReport(t tally, defs []metricDef, values map[string]float64) *report {
	rep := &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			rep.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
	}
	return rep
}

// resolver turns generated cells into measurement configs over machines
// and components built once per run.
type resolver struct {
	machines map[string]*topology.Machine
	comps    map[string]bench.Comp
}

// newResolver builds the evaluation machines and paper components, plus
// cl's composite machine and Hier-Tree component when cl is not nil.
func newResolver(cl *topology.Cluster) *resolver {
	rv := &resolver{machines: map[string]*topology.Machine{}, comps: map[string]bench.Comp{}}
	for _, name := range []string{"IG", "Zoot", "Dancer"} {
		rv.machines[name] = topology.ByName(name)
	}
	for _, c := range bench.PaperComponents() {
		rv.comps[c.Name] = c
	}
	if cl != nil {
		rv.machines[clusterName] = cl.Global
		hier := bench.Hier(cl)
		rv.comps[hier.Name] = hier
	}
	return rv
}

func (rv *resolver) config(c cellSpec) bench.Config {
	return bench.Config{
		Machine: rv.machines[c.Machine], NP: c.NP, Comp: rv.comps[c.Comp], Op: bench.Op(c.Op),
		Size: c.Size, Iters: c.Iters, OffCache: c.OffCache, Root: c.Root,
	}
}

// measureForced simulates c on the single-engine executor, bypassing the
// memo cache.
func measureForced(ctx context.Context, rv *resolver, c cellSpec) (bench.Result, error) {
	return bench.MeasureForced(ctx, rv.config(c), false)
}

// dropShards empties the measurement harness's pool of warmed engine
// shards, so the next cell builds a fresh one: the pool is a sync.Pool,
// which two collections clear.
func dropShards() {
	runtime.GC()
	runtime.GC()
}

// workers is the cell parallelism: two workers, or fewer on a smaller host.
func workers() int { return min(2, runtime.GOMAXPROCS(0)) }

// setupFigures times a workload's set-up: figures times, each after a
// collection so that no figure pays for the garbage of the one before, it
// runs fn reps times and records the seconds per call.
func setupFigures(figures, reps int, fn func()) []float64 {
	var out []float64
	for range figures {
		runtime.GC()
		out = append(out, timeIt(func() {
			for range reps {
				fn()
			}
		})/float64(reps))
	}
	return out
}

// timeIt returns how long fn takes.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}
