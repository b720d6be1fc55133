// Command tune drives the empirical autotuner: it searches the collective
// algorithm space on a simulated machine, persists the winning decisions
// as a versioned JSON table, and inspects or compares such tables.
//
// Usage:
//
//	tune search -machine IG -o machines/ig.tune.json          # full default grid
//	tune search -machine IG -ops bcast -sizes 512K,1M,2M,4M,8M -parallel 4 -o ig.json
//	tune show machines/ig.tune.json                            # validate + print
//	tune show -machine IG machines/ig.tune.json                # also check fingerprint
//	tune diff old.json new.json                                # decision drift
//	tune diff -defaults machines/ig.tune.json                  # tuned vs hardcoded rules
//
// Searches are deterministic: the same machine, grid, and seed emit a
// byte-identical table at any -parallel level.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/topology"
	"repro/internal/tune"
	"repro/internal/tune/search"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "search":
		cmdSearch(os.Args[2:])
	case "show":
		cmdShow(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tune: unknown command %q (valid: search, show, diff)\n", os.Args[1])
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  tune search -machine <name|file> [-ops a,b] [-np n,m] [-sizes 32K,1M] [-iters n] [-seed n] [-keep f] [-parallel n] [-o table.json]
  tune show [-machine <name|file>] <table.json>
  tune diff <old.json> <new.json>
  tune diff -defaults [-v] <table.json>
`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tune:", strings.TrimPrefix(err.Error(), "tune: "))
	os.Exit(1)
}

func cmdSearch(args []string) {
	fs := flag.NewFlagSet("tune search", flag.ExitOnError)
	machine := fs.String("machine", "IG", "machine to tune: Zoot, Dancer, Saturn, IG, or a machine-description file")
	cluster := fs.String("cluster", "", "cluster-description file (.cluster) to tune; replaces -machine and adds the hierarchical family to the grid")
	ops := fs.String("ops", "", "comma-separated operations to tune (default: bcast,gather,scatter,allgather,alltoall)")
	nps := fs.String("np", "", "comma-separated communicator sizes (default: all cores)")
	sizes := fs.String("sizes", "", "comma-separated grid sizes (default: the paper's 32K..8M)")
	iters := fs.Int("iters", 1, "measured iterations per cell")
	seed := fs.Int64("seed", 0, "seed recorded in the table (the search draws no randomness)")
	keep := fs.Float64("keep", 0, "successive-halving keep factor (default 1.5)")
	parallel := fs.Int("parallel", 1, "concurrent measurement cells; the table is byte-identical at any level")
	out := fs.String("o", "", "output path (default: stdout)")
	quiet := fs.Bool("q", false, "suppress progress logging")
	noCache := fs.Bool("no-cache", false, "disable run memoization: re-simulate every cell")
	cacheDir := fs.String("cache-dir", "", "persistent simulation cache directory (default: the user cache dir)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	fs.Parse(args)
	run := bench.NewRunner()
	run.SetParallel(*parallel)
	cached, err := run.EnableDefaultCache("tune", *noCache, *cacheDir)
	if err != nil {
		fatal(err)
	}
	stopProfiles, err := bench.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	o := search.Options{Iters: *iters, Seed: *seed, KeepFactor: *keep}
	if *cluster != "" {
		cl, err := topology.LoadCluster(*cluster)
		if err != nil {
			fatal(err)
		}
		o.Cluster = cl
	} else {
		m, err := topology.LoadMachine(*machine)
		if err != nil {
			fatal(err)
		}
		o.Machine = m
	}
	if !*quiet {
		o.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "tune: "+format+"\n", args...)
		}
	}
	if *ops != "" {
		o.Ops = splitList(*ops)
	}
	for _, s := range splitList(*nps) {
		np, err := strconv.Atoi(s)
		if err != nil {
			fatal(fmt.Errorf("bad -np entry %q", s))
		}
		o.NPs = append(o.NPs, np)
	}
	for _, s := range splitList(*sizes) {
		o.Sizes = append(o.Sizes, parseSize(s))
	}
	t, err := search.Run(run, o)
	if err != nil {
		fatal(err)
	}
	if cached {
		run.ReportCacheCounts("tune")
	}
	if *out == "" {
		if err := t.Write(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if err := t.WriteFile(*out); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tune: wrote %d cells to %s\n", len(t.Cells), *out)
}

func cmdShow(args []string) {
	fs := flag.NewFlagSet("tune show", flag.ExitOnError)
	machine := fs.String("machine", "", "verify the table matches this machine's fingerprint")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	var m *topology.Machine
	if *machine != "" {
		var err error
		if m, err = topology.LoadMachine(*machine); err != nil {
			fatal(err)
		}
	}
	t, err := tune.Load(fs.Arg(0), m)
	if err != nil {
		fatal(err)
	}
	show(t, fs.Arg(0))
}

func show(t *tune.Table, path string) {
	fmt.Printf("# decision table %s\n", path)
	fmt.Printf("machine %s (fingerprint %s)  schema v%d  seed %d\n", t.Machine, t.Fingerprint, t.Version, t.Seed)
	fmt.Printf("grid: ops=%s nps=%s sizes=%s iters=%d keep=%.2f\n",
		strings.Join(t.Grid.Ops, ","), intList(t.Grid.NPs), sizeList(t.Grid.Sizes),
		t.Grid.Iters, t.Grid.KeepFactor)
	fmt.Printf("%-10s %4s %6s  %-38s %12s  %s\n", "op", "np", "size", "winner", "seconds", "runner-up (margin)")
	for _, c := range t.Cells {
		ru := "-"
		if c.RunnerUp != "" {
			ru = fmt.Sprintf("%s (+%.1f%%)", c.RunnerUp, 100*c.Margin())
		}
		fmt.Printf("%-10s %4d %6s  %-38s %10.1fus  %s\n",
			c.Op, c.NP, sizeLabel(c.Size), c.Choice.String(), c.Seconds*1e6, ru)
	}
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("tune diff", flag.ExitOnError)
	defaults := fs.Bool("defaults", false, "compare the table's tuned decisions against the hardcoded default rules")
	verbose := fs.Bool("v", false, "with -defaults: list every cell, not only the improved ones")
	fs.Parse(args)
	switch {
	case *defaults && fs.NArg() == 1:
		t, err := tune.Load(fs.Arg(0), nil)
		if err != nil {
			fatal(err)
		}
		diffDefaults(t, *verbose)
	case !*defaults && fs.NArg() == 2:
		a, err := tune.Load(fs.Arg(0), nil)
		if err != nil {
			fatal(err)
		}
		b, err := tune.Load(fs.Arg(1), nil)
		if err != nil {
			fatal(err)
		}
		diffTables(a, b)
	default:
		usage()
		os.Exit(2)
	}
}

// diffDefaults renders, per cell, how the tuned decision compares with the
// per-family hardcoded defaults that were measured alongside it. Positive
// speedups are guaranteed by construction: the default configurations are
// never pruned, so each family's tuned best is at least as fast.
func diffDefaults(t *tune.Table, verbose bool) {
	fmt.Printf("# tuned vs hardcoded defaults on %s (positive = tuned faster)\n", t.Machine)
	fmt.Printf("%-10s %4s %6s  %-38s %12s %12s %9s\n",
		"op", "np", "size", "winner", "tuned", "knem-def", "speedup")
	var improved, total int
	for _, c := range t.Cells {
		k := c.Alts.Knem
		if k == nil {
			continue
		}
		total++
		best := k.Seconds
		if fb := c.Alts.TunedSM; fb != nil && fb.Seconds < best {
			best = fb.Seconds // the component delegates on this cell
		}
		speedup := k.DefaultSeconds/best - 1
		if speedup > 1e-9 {
			improved++
		} else if !verbose {
			continue
		}
		fmt.Printf("%-10s %4d %6s  %-38s %10.1fus %10.1fus %+8.1f%%\n",
			c.Op, c.NP, sizeLabel(c.Size), c.Choice.String(), best*1e6, k.DefaultSeconds*1e6, 100*speedup)
	}
	fmt.Printf("# %d of %d cells improved over the default KNEM-Coll rules; none regressed\n", improved, total)
}

func diffTables(a, b *tune.Table) {
	if a.Machine != b.Machine || a.Fingerprint != b.Fingerprint {
		fmt.Printf("# WARNING: tables are for different machines (%s/%s vs %s/%s)\n",
			a.Machine, a.Fingerprint, b.Machine, b.Fingerprint)
	}
	type key struct {
		op   string
		np   int
		size int64
	}
	am := map[key]tune.Cell{}
	for _, c := range a.Cells {
		am[key{c.Op, c.NP, c.Size}] = c
	}
	bm := map[key]tune.Cell{}
	keys := map[key]bool{}
	for k := range am {
		keys[k] = true
	}
	for _, c := range b.Cells {
		bm[key{c.Op, c.NP, c.Size}] = c
		keys[key{c.Op, c.NP, c.Size}] = true
	}
	ordered := make([]key, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].op != ordered[j].op {
			return ordered[i].op < ordered[j].op
		}
		if ordered[i].np != ordered[j].np {
			return ordered[i].np < ordered[j].np
		}
		return ordered[i].size < ordered[j].size
	})
	changed := 0
	for _, k := range ordered {
		ca, inA := am[k]
		cb, inB := bm[k]
		switch {
		case !inA:
			fmt.Printf("%-10s %4d %6s  only new: %s\n", k.op, k.np, sizeLabel(k.size), cb.Choice)
			changed++
		case !inB:
			fmt.Printf("%-10s %4d %6s  only old: %s\n", k.op, k.np, sizeLabel(k.size), ca.Choice)
			changed++
		case ca.Choice != cb.Choice:
			fmt.Printf("%-10s %4d %6s  %s -> %s (%.1fus -> %.1fus)\n",
				k.op, k.np, sizeLabel(k.size), ca.Choice, cb.Choice, ca.Seconds*1e6, cb.Seconds*1e6)
			changed++
		}
	}
	fmt.Printf("# %d of %d cells differ\n", changed, len(ordered))
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseSize(s string) int64 {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "M"):
		mult = 1 << 20
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "K"):
		mult = 1 << 10
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v <= 0 {
		fatal(fmt.Errorf("bad size %q", s))
	}
	return v * mult
}

func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	}
	return fmt.Sprintf("%d", n)
}

func intList(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

func sizeList(ns []int64) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = sizeLabel(n)
	}
	return strings.Join(parts, ",")
}
