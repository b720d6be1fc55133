package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/asp"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/tune"
)

// Table1Row is one line of the paper's Table I: the time a rank spends in
// MPI_Bcast and the total application time, for one MPI configuration.
type Table1Row struct {
	Comp  string
	Bcast float64
	Total float64
}

// Table1Result is one machine column pair of Table I plus the derived
// improvement percentages the paper reports (relative to the best
// competing library).
type Table1Result struct {
	Machine          string
	N                int
	NP               int
	Rows             []Table1Row
	BcastImprovement float64 // percent vs best non-KNEM row
	TotalImprovement float64
}

// table1Comps returns the three configurations of Table I. The KNEM
// component runs with deferred root synchronization (§III-B's persistent
// region rationale); its Broadcast mode resolves per machine: linear on
// Zoot, hierarchical pipelined on IG (§VI-E).
func table1Comps() []Comp {
	openMPI := TunedSM() // keeps the canonical Key so the cell memoizes
	openMPI.Name = "Open MPI"
	return []Comp{
		openMPI,
		MPICH2SM(),
		KNEMCollCfg("KNEM Coll", core.Config{LazySync: true}),
	}
}

// table1Cell is the memoized payload of one ASP application run: the two
// float64 columns round-trip exactly through encoding/json, so a cache hit
// renders bit-for-bit identically to the simulation it replaces.
type table1Cell struct {
	Bcast float64 `json:"bcast_seconds"`
	Total float64 `json:"total_seconds"`
}

// RunTable1 reproduces one machine of Table I: ASP at matrix dimension n
// (paper: 16384 on Zoot, 32768 on IG), with sample iterations simulated
// and scaled (sample <= 0 simulates every iteration). Cells go through the
// runner's run memoization like Measure's (see memo.go): the application
// runs are deterministic, so a repeated `asp` invocation is served from
// the cache. It panics if a run fails.
func (r *Runner) RunTable1(m *topology.Machine, n, sample int) Table1Result {
	res := Table1Result{Machine: m.Name, N: n, NP: m.NCores()}
	comps := table1Comps()
	res.Rows = make([]Table1Row, len(comps))
	cache := r.memo.Load()
	err := r.runCellsCtx(context.Background(), len(comps), func(i int) error {
		c := comps[i]
		var key string
		if cache != nil && c.Key != "" {
			key = fmt.Sprintf("%s|%s|table1|m=%s|comp=%s|btl=%d|knemmin=%d|n=%d|sample=%d|seed=11",
				cacheSchema, simFingerprint, tune.Fingerprint(m), c.Key, c.BTL, c.KnemMin, n, sample)
			var cell table1Cell
			if ent, ok := peek[rawMemoEntry](cache, key); ok && json.Unmarshal(ent.Value, &cell) == nil {
				r.hits.Add(1)
				res.Rows[i] = Table1Row{Comp: c.Name, Bcast: cell.Bcast, Total: cell.Total}
				return nil
			}
			r.misses.Add(1)
		}
		var bcast, total float64
		_, _, err := mpi.Run(mpi.Options{
			Machine: m,
			BTL:     c.BTL,
			KnemMin: c.KnemMin,
			Coll:    c.New,
		}, func(r *mpi.Rank) {
			out := asp.Run(r, asp.Config{N: n, Virtual: true, SampleIters: sample, Seed: 11}, nil)
			if out.BcastSeconds > bcast {
				bcast = out.BcastSeconds
			}
			if out.TotalSeconds > total {
				total = out.TotalSeconds
			}
		})
		if err != nil {
			return fmt.Errorf("bench: table1 %s/%s: %v", m.Name, c.Name, err)
		}
		if key != "" {
			if value, err := json.Marshal(table1Cell{Bcast: bcast, Total: total}); err == nil {
				put(cache, key, rawMemoEntry{Value: value})
			}
		}
		res.Rows[i] = Table1Row{Comp: c.Name, Bcast: bcast, Total: total}
		return nil
	})
	if err != nil {
		panic(err)
	}
	bestBcast, bestTotal := res.Rows[0].Bcast, res.Rows[0].Total
	for _, row := range res.Rows[:len(res.Rows)-1] {
		if row.Bcast < bestBcast {
			bestBcast = row.Bcast
		}
		if row.Total < bestTotal {
			bestTotal = row.Total
		}
	}
	knem := res.Rows[len(res.Rows)-1]
	res.BcastImprovement = 100 * (bestBcast - knem.Bcast) / bestBcast
	res.TotalImprovement = 100 * (bestTotal - knem.Total) / bestTotal
	return res
}

// Render prints the Table I column pair for this machine.
func (t Table1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "## Table I — ASP on %s (matrix %d^2, %d ranks)\n", t.Machine, t.N, t.NP)
	fmt.Fprintf(w, "%-12s %12s %12s\n", "", "Bcast", "Total")
	for _, row := range t.Rows {
		fmt.Fprintf(w, "%-12s %11.1fs %11.1fs\n", row.Comp, row.Bcast, row.Total)
	}
	fmt.Fprintf(w, "%-12s %11.1f%% %11.1f%%\n", "Improvement", t.BcastImprovement, t.TotalImprovement)
}
