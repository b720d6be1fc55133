package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/topology"
)

// Scalability measures how a collective's cost grows with the number of
// cores — the §I motivation ("current shared memory techniques do not
// scale with increasing numbers of cores") and the conclusion's claim that
// the KNEM component exhibits better scalability on many-core hardware.
type Scalability struct {
	Machine string
	Op      Op
	Size    int64
	Ranks   []int
	// Seconds[comp][np] is the measured time.
	Seconds map[string]map[int]float64
	order   []string
}

// RunScalability sweeps rank counts on machine m for one operation. The
// comps × ranks cells run on the runner's worker pool (SetParallel) and
// are assembled in deterministic order.
func (r *Runner) RunScalability(m *topology.Machine, op Op, size int64, ranks []int, comps []Comp, iters int) Scalability {
	s := Scalability{
		Machine: m.Name, Op: op, Size: size, Ranks: ranks,
		Seconds: make(map[string]map[int]float64),
	}
	cfgs := make([]Config, 0, len(comps)*len(ranks))
	for _, c := range comps {
		for _, np := range ranks {
			cfgs = append(cfgs, Config{
				Machine: m, NP: np, Comp: c, Op: op, Size: size,
				Iters: iters, OffCache: true,
			})
		}
	}
	results := r.MeasureAll(cfgs)
	for i, c := range comps {
		s.order = append(s.order, c.Name)
		s.Seconds[c.Name] = make(map[int]float64)
		for j, np := range ranks {
			s.Seconds[c.Name][np] = results[i*len(ranks)+j].Seconds
		}
	}
	return s
}

// Growth returns time(maxNP)/time(minNP) for a component — the scaling
// penalty over the sweep (lower grows better).
func (s Scalability) Growth(comp string) float64 {
	ranks := append([]int(nil), s.Ranks...)
	sort.Ints(ranks)
	return s.Seconds[comp][ranks[len(ranks)-1]] / s.Seconds[comp][ranks[0]]
}

// Render prints the sweep with per-component growth factors.
func (s Scalability) Render(w io.Writer) {
	fmt.Fprintf(w, "## %s of %s on %s while filling cores (lower is better)\n", s.Op, sizeLabel(s.Size), s.Machine)
	fmt.Fprintf(w, "%8s", "ranks")
	for _, c := range s.order {
		fmt.Fprintf(w, " %14s", c)
	}
	fmt.Fprintln(w)
	for _, np := range s.Ranks {
		fmt.Fprintf(w, "%8d", np)
		for _, c := range s.order {
			fmt.Fprintf(w, " %12.1fus", s.Seconds[c][np]*1e6)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%8s", "growth")
	for _, c := range s.order {
		fmt.Fprintf(w, " %13.2fx", s.Growth(c))
	}
	fmt.Fprintln(w)
}
