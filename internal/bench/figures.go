package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/topology"
)

// Series is one line of a figure: a component measured across sizes.
type Series struct {
	Label   string
	Seconds map[int64]float64 // size -> seconds
}

// Panel is one subplot: several components on one machine, normalized to
// Baseline when rendered (the paper normalizes runtimes so lower = better,
// with the reference at 1.0).
type Panel struct {
	Title    string
	Machine  string
	Baseline string
	Sizes    []int64
	Series   []Series
}

// Figure is a set of panels plus identification of the paper artifact it
// regenerates.
type Figure struct {
	ID     string
	Title  string
	Panels []Panel
}

// sweep measures comps × sizes on one machine for one op. Cells run on the
// runner's worker pool (SetParallel) and are assembled comp-major in index
// order, so the output is independent of the parallelism level.
func (r *Runner) sweep(m *topology.Machine, np int, op Op, comps []Comp, sizes []int64, iters int, offCache bool) []Series {
	cfgs := make([]Config, 0, len(comps)*len(sizes))
	for _, c := range comps {
		for _, sz := range sizes {
			cfgs = append(cfgs, Config{
				Machine: m, NP: np, Comp: c, Op: op, Size: sz,
				Iters: iters, OffCache: offCache,
			})
		}
	}
	results := r.MeasureAll(cfgs)
	out := make([]Series, len(comps))
	for i, c := range comps {
		out[i] = Series{Label: c.Name, Seconds: make(map[int64]float64)}
		for j, sz := range sizes {
			out[i].Seconds[sz] = results[i*len(sizes)+j].Seconds
		}
	}
	return out
}

// opFigure builds one of the Fig 5-8 style figures: the op measured on all
// four platforms with the five paper configurations, normalized to
// KNEM-Coll.
func (r *Runner) opFigure(id, title string, op Op, sizes []int64, iters int) Figure {
	fig := Figure{ID: id, Title: title}
	for _, m := range []*topology.Machine{topology.Zoot(), topology.Dancer(), topology.Saturn(), topology.IG()} {
		fig.Panels = append(fig.Panels, Panel{
			Title:    fmt.Sprintf("%s on %s", title, m.Name),
			Machine:  m.Name,
			Baseline: "KNEM-Coll",
			Sizes:    sizes,
			Series:   r.sweep(m, m.NCores(), op, PaperComponents(), sizes, iters, true),
		})
	}
	return fig
}

// Fig5 regenerates Figure 5: Broadcast comparison on all platforms.
func (r *Runner) Fig5(iters int) Figure {
	return r.opFigure("fig5", "Broadcast", OpBcast, PaperSizes(), iters)
}

// Fig6 regenerates Figure 6: Gather comparison.
func (r *Runner) Fig6(iters int) Figure {
	return r.opFigure("fig6", "Gather", OpGather, PaperSizes(), iters)
}

// ScatterFigure regenerates the §VI-C Scatter discussion (no paper figure;
// the text reports maximum speedups of ~3x/2x/4x/4x).
func (r *Runner) ScatterFigure(iters int) Figure {
	return r.opFigure("scatter", "Scatter", OpScatter, PaperSizes(), iters)
}

// Fig7 regenerates Figure 7: Alltoallv comparison.
func (r *Runner) Fig7(iters int) Figure {
	return r.opFigure("fig7", "Alltoallv", OpAlltoallv, PaperSizes(), iters)
}

// Fig8 regenerates Figure 8: Allgather comparison.
func (r *Runner) Fig8(iters int) Figure {
	return r.opFigure("fig8", "Allgather", OpAllgather, PaperSizes(), iters)
}

// Fig4 regenerates Figure 4: pipeline-size tuning of the hierarchical
// pipelined Broadcast on IG. Series: the linear algorithm, and the
// hierarchical algorithm with pipeline segments from 4 KiB to 2 MiB;
// normalized against hierarchical-without-pipeline.
func (r *Runner) Fig4(iters int) Figure {
	m := topology.IG()
	comps := []Comp{
		KNEMCollCfg("no-pipeline", core.Config{Mode: core.ModeHierarchical, NoPipeline: true}),
		KNEMCollCfg("linear", core.Config{Mode: core.ModeLinear}),
	}
	for _, seg := range []int64{4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB} {
		comps = append(comps, KNEMCollCfg(
			segLabel(seg),
			core.Config{Mode: core.ModeHierarchical, FixedSeg: seg},
		))
	}
	return Figure{
		ID:    "fig4",
		Title: "Hierarchical pipelined Broadcast tuning on IG",
		Panels: []Panel{{
			Title:    "Pipeline size tuning (IG, 48 ranks)",
			Machine:  m.Name,
			Baseline: "no-pipeline",
			Sizes:    Fig4Sizes(),
			Series:   r.sweep(m, m.NCores(), OpBcast, comps, Fig4Sizes(), iters, true),
		}},
	}
}

func segLabel(seg int64) string {
	if seg >= MiB {
		return fmt.Sprintf("%dMB", seg/MiB)
	}
	return fmt.Sprintf("%dKB", seg/KiB)
}

// Normalized returns series values divided by the baseline series at each
// size (the paper's y-axis).
func (p Panel) Normalized() []Series {
	var base Series
	for _, s := range p.Series {
		if s.Label == p.Baseline {
			base = s
		}
	}
	if base.Seconds == nil {
		panic("bench: baseline series " + p.Baseline + " missing")
	}
	out := make([]Series, len(p.Series))
	for i, s := range p.Series {
		out[i] = Series{Label: s.Label, Seconds: make(map[int64]float64, len(s.Seconds))}
		for sz, v := range s.Seconds {
			out[i].Seconds[sz] = v / base.Seconds[sz]
		}
	}
	return out
}

// Get returns the series with the given label.
func (p Panel) Get(label string) Series {
	for _, s := range p.Series {
		if s.Label == label {
			return s
		}
	}
	panic("bench: no series " + label)
}

// Render prints the panel as an aligned table: absolute microseconds and
// the normalized value per cell.
func (p Panel) Render(w io.Writer) {
	fmt.Fprintf(w, "## %s (normalized to %s; lower is better)\n", p.Title, p.Baseline)
	norm := p.Normalized()
	fmt.Fprintf(w, "%12s", "size")
	for _, s := range p.Series {
		fmt.Fprintf(w, " %18s", s.Label)
	}
	fmt.Fprintln(w)
	sizes := append([]int64(nil), p.Sizes...)
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	for _, sz := range sizes {
		fmt.Fprintf(w, "%12s", sizeLabel(sz))
		for i, s := range p.Series {
			fmt.Fprintf(w, " %10.1fus %5.2fx", s.Seconds[sz]*1e6, norm[i].Seconds[sz])
		}
		fmt.Fprintln(w)
	}
}

// Render prints every panel of the figure.
func (f Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "# %s: %s\n", f.ID, f.Title)
	for _, p := range f.Panels {
		p.Render(w)
		fmt.Fprintln(w)
	}
}

func sizeLabel(sz int64) string {
	switch {
	case sz >= MiB:
		return fmt.Sprintf("%dM", sz/MiB)
	default:
		return fmt.Sprintf("%dK", sz/KiB)
	}
}

// figureJSON mirrors Figure with JSON-friendly series (maps keyed by int64
// are awkward in JSON, so points become sorted arrays).
type figureJSON struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Panels []panelJSON `json:"panels"`
}

type panelJSON struct {
	Title    string       `json:"title"`
	Machine  string       `json:"machine"`
	Baseline string       `json:"baseline"`
	Series   []seriesJSON `json:"series"`
}

type seriesJSON struct {
	Label  string      `json:"label"`
	Points []pointJSON `json:"points"`
}

type pointJSON struct {
	Size       int64   `json:"size"`
	Seconds    float64 `json:"seconds"`
	Normalized float64 `json:"normalized"`
}

// WriteJSON emits the figure as JSON, including per-point normalized
// values, for downstream plotting.
func (f Figure) WriteJSON(w io.Writer) error {
	out := figureJSON{ID: f.ID, Title: f.Title}
	for _, p := range f.Panels {
		pj := panelJSON{Title: p.Title, Machine: p.Machine, Baseline: p.Baseline}
		norm := p.Normalized()
		sizes := append([]int64(nil), p.Sizes...)
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
		for i, s := range p.Series {
			sj := seriesJSON{Label: s.Label}
			for _, sz := range sizes {
				sj.Points = append(sj.Points, pointJSON{
					Size: sz, Seconds: s.Seconds[sz], Normalized: norm[i].Seconds[sz],
				})
			}
			pj.Series = append(pj.Series, sj)
		}
		out.Panels = append(out.Panels, pj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
