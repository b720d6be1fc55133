// Command imb regenerates the paper's synthetic benchmark figures (Fig. 4
// through Fig. 8 and the §VI-C Scatter comparison) on the simulated
// platforms, printing normalized-runtime tables in the paper's format.
//
// Usage:
//
//	imb -fig 5              # Figure 5 (Broadcast, all four machines)
//	imb -fig all            # every figure
//	imb -op gather -machine IG -sizes 1M,8M   # ad-hoc sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/coll/hier"
	"repro/internal/fault"
	"repro/internal/topology"
	"repro/internal/tune"
)

var (
	jsonOut bool
	// run measures every cell of this invocation.
	run = bench.NewRunner()
)

// validOps are the operations runSweep and -scalability accept, and
// validFigs the arguments -fig accepts; both lists back the one-line
// rejection errors below.
var (
	validOps  = []string{"bcast", "gather", "scatter", "allgather", "alltoall", "alltoallv", "barrier", "pingpong"}
	validFigs = []string{"4", "5", "6", "7", "8", "scatter", "all"}
)

// checkChoice validates a flag value against its closed set, returning the
// one-line error `imb` prints: unknown value plus every valid spelling.
func checkChoice(flagName, val string, valid []string) error {
	for _, v := range valid {
		if val == v {
			return nil
		}
	}
	return fmt.Errorf("unknown %s %q (valid: %s)", flagName, val, strings.Join(valid, ", "))
}

// loadDecisions installs tuned decision tables (comma-separated paths,
// written by `tune search`) as the runner's decision set: any measured
// machine whose fingerprint matches a table runs under its decisions.
func loadDecisions(paths string) error {
	set := tune.NewSet()
	for _, p := range splitNonEmpty(paths) {
		t, err := tune.Load(p, nil)
		if err != nil {
			return err
		}
		set.Add(t)
	}
	run.SetDecisions(set)
	return nil
}

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 4, 5, 6, 7, 8, scatter, all")
	scal := flag.Bool("scalability", false, "core-count scaling sweep (op, machine, sizes flags apply)")
	ablation := flag.Bool("ablation", false, "A/B measurements of the component's design choices")
	op := flag.String("op", "", "ad-hoc sweep: bcast, gather, scatter, allgather, alltoall, alltoallv")
	machine := flag.String("machine", "IG", "machine for ad-hoc sweeps: Zoot, Dancer, Saturn, IG, or a machine-description file")
	cluster := flag.String("cluster", "", "cluster-description file (.cluster) for ad-hoc sweeps; replaces -machine and adds the hierarchical components")
	np := flag.Int("np", 0, "ranks (default: all cores)")
	sizes := flag.String("sizes", "", "comma-separated sizes for ad-hoc sweeps (e.g. 32K,1M,8M)")
	iters := flag.Int("iters", 3, "measured iterations per point")
	parallel := flag.Int("parallel", 1, "concurrent measurement cells; output is byte-identical at any level")
	asJSON := flag.Bool("json", false, "emit figures as JSON instead of tables")
	comps := flag.String("comps", "", "comma-separated components for ad-hoc sweeps (default: the paper's five); options: Tuned-SM, Tuned-KNEM, MPICH2-SM, MPICH2-KNEM, KNEM-Coll, Basic-SM, SM-Coll")
	faultSeed := flag.Int64("fault-seed", 0, "seed for probabilistic fault draws (reproducible schedules)")
	faultCreate := flag.Int("fault-create-every", 0, "fail every Nth KNEM region registration with ENOMEM")
	faultPin := flag.Int64("fault-pin-budget", 0, "pinned-page budget; registrations beyond it fail")
	faultInval := flag.Int("fault-invalidate-every", 0, "invalidate every Nth live region cookie mid-collective")
	faultCopyTr := flag.Float64("fault-copy-transient", 0, "probability a kernel copy fails transiently (EAGAIN)")
	faultStrag := flag.String("fault-straggler", "", "comma-separated rank:delay stragglers (e.g. 3:2e-3)")
	faultLink := flag.String("fault-link", "", "comma-separated link:scale degradations (e.g. mem0:0.5); names must be links of the swept machine")
	decisionsPath := flag.String("decisions", "", "comma-separated tuned decision tables (JSON from `tune search`) applied to matching machines")
	noCache := flag.Bool("no-cache", false, "disable run memoization: re-simulate every cell")
	cacheDir := flag.String("cache-dir", "", "persistent simulation cache directory (default: the user cache dir)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()
	jsonOut = *asJSON
	run.SetParallel(*parallel)
	cached, err := run.EnableDefaultCache("imb", *noCache, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imb:", err)
		os.Exit(1)
	}
	stopProfiles, err := bench.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imb:", err)
		os.Exit(1)
	}
	defer stopProfiles()
	if *fig != "" {
		if err := checkChoice("-fig", *fig, validFigs); err != nil {
			fmt.Fprintln(os.Stderr, "imb:", err)
			os.Exit(2)
		}
	}
	if *op != "" {
		if err := checkChoice("-op", *op, validOps); err != nil {
			fmt.Fprintln(os.Stderr, "imb:", err)
			os.Exit(2)
		}
	}
	if *decisionsPath != "" {
		if err := loadDecisions(*decisionsPath); err != nil {
			fmt.Fprintln(os.Stderr, "imb:", err)
			os.Exit(2)
		}
	}
	plan := buildPlan(*faultSeed, *faultCreate, *faultPin, *faultInval, *faultCopyTr, *faultStrag, *faultLink)

	switch {
	case *ablation:
		bench.RenderAblations(os.Stdout, run.RunAblations(*iters))
	case *scal:
		runScalability(*op, *machine, *sizes, *iters)
	case *fig != "":
		runFigures(*fig, *iters)
	case *op != "":
		runSweep(*op, *machine, *cluster, *np, *sizes, *iters, *comps, plan)
	case *cluster != "":
		fmt.Fprintln(os.Stderr, "imb: -cluster needs an -op to sweep")
		os.Exit(2)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if cached {
		run.ReportCacheCounts("imb")
	}
}

// buildPlan assembles a fault.Plan from the -fault-* flags; nil when none
// is set, so fault-free runs take the zero-overhead path.
func buildPlan(seed int64, createEvery int, pinBudget int64, invalEvery int, copyTr float64, strag, link string) *fault.Plan {
	p := &fault.Plan{
		Seed:             seed,
		CreateFailEvery:  createEvery,
		PinnedPageBudget: pinBudget,
		InvalidateEvery:  invalEvery,
		CopyTransient:    copyTr,
	}
	for _, kv := range splitNonEmpty(strag) {
		rank, delay := parsePair(kv, "straggler")
		if p.Straggler == nil {
			p.Straggler = map[int]float64{}
		}
		p.Straggler[int(rank)] = delay
	}
	for _, kv := range splitNonEmpty(link) {
		i := strings.LastIndex(kv, ":")
		if i < 0 {
			fmt.Fprintf(os.Stderr, "imb: bad -fault-link entry %q (want name:scale)\n", kv)
			os.Exit(2)
		}
		scale, err := strconv.ParseFloat(kv[i+1:], 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imb: bad -fault-link scale %q\n", kv[i+1:])
			os.Exit(2)
		}
		if p.LinkSlowdown == nil {
			p.LinkSlowdown = map[string]float64{}
		}
		p.LinkSlowdown[kv[:i]] = scale
	}
	if p.Empty() {
		return nil
	}
	return p
}

func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func parsePair(kv, what string) (int64, float64) {
	i := strings.Index(kv, ":")
	if i < 0 {
		fmt.Fprintf(os.Stderr, "imb: bad -fault-%s entry %q (want key:value)\n", what, kv)
		os.Exit(2)
	}
	k, err1 := strconv.ParseInt(kv[:i], 10, 64)
	v, err2 := strconv.ParseFloat(kv[i+1:], 64)
	if err1 != nil || err2 != nil {
		fmt.Fprintf(os.Stderr, "imb: bad -fault-%s entry %q\n", what, kv)
		os.Exit(2)
	}
	return k, v
}

func runFigures(which string, iters int) {
	figs := map[string]func(int) bench.Figure{
		"4":       run.Fig4,
		"5":       run.Fig5,
		"6":       run.Fig6,
		"7":       run.Fig7,
		"8":       run.Fig8,
		"scatter": run.ScatterFigure,
	}
	emit := func(f bench.Figure) {
		if jsonOut {
			if err := f.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "imb:", err)
				os.Exit(1)
			}
			return
		}
		f.Render(os.Stdout)
	}
	if which == "all" {
		for _, k := range []string{"4", "5", "6", "scatter", "7", "8"} {
			emit(figs[k](iters))
		}
		return
	}
	f, ok := figs[which]
	if !ok {
		fmt.Fprintf(os.Stderr, "imb: unknown figure %q\n", which)
		os.Exit(2)
	}
	emit(f(iters))
}

func runSweep(op, machine, cluster string, np int, sizeList string, iters int, compList string, plan *fault.Plan) {
	var m *topology.Machine
	var cl *topology.Cluster
	var err error
	if cluster != "" {
		cl, err = topology.LoadCluster(cluster)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imb:", err)
			os.Exit(2)
		}
		m = cl.Global
	} else {
		m, err = topology.LoadMachine(machine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imb:", err)
			os.Exit(2)
		}
	}
	if err := plan.CheckLinks(m); err != nil {
		fmt.Fprintln(os.Stderr, "imb: -fault-link:", err)
		os.Exit(2)
	}
	if np == 0 {
		np = m.NCores()
	}
	szs := bench.PaperSizes()
	if sizeList != "" {
		szs = nil
		for _, s := range strings.Split(sizeList, ",") {
			szs = append(szs, parseSize(s))
		}
	}
	baseline := "KNEM-Coll"
	if cl != nil {
		baseline = "Hier-Tree"
	}
	panel := bench.Panel{
		Title:    fmt.Sprintf("%s on %s (np=%d)", op, m.Name, np),
		Machine:  m.Name,
		Baseline: baseline,
		Sizes:    szs,
	}
	comps := pickComps(compList, cl)
	var cfgs []bench.Config
	for _, c := range comps {
		for _, sz := range szs {
			cfgs = append(cfgs, bench.Config{
				Machine: m, NP: np, Comp: c, Op: bench.Op(op), Size: sz,
				Iters: iters, OffCache: true, Fault: plan,
			})
		}
	}
	results := run.MeasureAll(cfgs)
	for i, c := range comps {
		s := bench.Series{Label: c.Name, Seconds: map[int64]float64{}}
		for j, sz := range szs {
			res := results[i*len(szs)+j]
			s.Seconds[sz] = res.Seconds
			if plan != nil {
				fmt.Printf("# %s %s size=%d: %s\n", c.Name, op, sz, res.Stats.String())
			}
		}
		panel.Series = append(panel.Series, s)
	}
	panel.Render(os.Stdout)
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
	if err != nil {
		fmt.Fprintf(os.Stderr, "imb: bad size %q\n", s)
		os.Exit(2)
	}
	return v * mult
}

func runScalability(op, machine, sizeList string, iters int) {
	if op == "" {
		op = "bcast"
	}
	m, err := topology.LoadMachine(machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imb:", err)
		os.Exit(2)
	}
	size := int64(1 << 20)
	if sizeList != "" {
		size = parseSize(strings.Split(sizeList, ",")[0])
	}
	var ranks []int
	for np := 2; np < m.NCores(); np *= 2 {
		ranks = append(ranks, np)
	}
	ranks = append(ranks, m.NCores())
	s := run.RunScalability(m, bench.Op(op), size, ranks,
		[]bench.Comp{bench.TunedSM(), bench.TunedKNEM(), bench.KNEMColl()}, iters)
	s.Render(os.Stdout)
}

func pickComps(list string, cl *topology.Cluster) []bench.Comp {
	if list == "" {
		if cl != nil {
			// Cluster default: both hierarchical shapes against the flat
			// baseline over the same composite machine.
			return []bench.Comp{bench.Hier(cl), bench.HierCfg(cl, hier.Config{Inter: "ring"}), bench.TunedSM()}
		}
		return bench.PaperComponents()
	}
	byName := map[string]bench.Comp{}
	all := append(bench.PaperComponents(), bench.BasicSM(), bench.SMColl())
	if cl != nil {
		all = append(all, bench.Hier(cl), bench.HierCfg(cl, hier.Config{Inter: "ring"}))
	}
	for _, c := range all {
		byName[strings.ToLower(c.Name)] = c
	}
	var out []bench.Comp
	for _, name := range strings.Split(list, ",") {
		c, ok := byName[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			fmt.Fprintf(os.Stderr, "imb: unknown component %q\n", name)
			os.Exit(2)
		}
		out = append(out, c)
	}
	return out
}
