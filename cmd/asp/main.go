// Command asp regenerates the paper's Table I: the execution-time
// breakdown of the ASP all-pairs-shortest-path application (parallel
// Floyd-Warshall) under Open MPI (Tuned over shared memory), MPICH2, and
// the KNEM collective component, on the two extreme platforms Zoot and IG.
//
// Usage:
//
//	asp                     # both machines at paper scale (sampled)
//	asp -machine Zoot -n 16384 -sample 1024
//	asp -verify -n 64       # real-data run checked against the
//	                        # sequential solver
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asp"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/topology"
)

func main() {
	machine := flag.String("machine", "", "built-in machine or description file (default: Zoot and IG at paper scale)")
	n := flag.Int("n", 0, "matrix dimension (default: paper scale per machine)")
	sample := flag.Int("sample", 512, "iterations to simulate and scale up (0 = all)")
	verify := flag.Bool("verify", false, "run with real data and verify against the sequential solver")
	parallel := flag.Int("parallel", 1, "concurrent simulation cells (results are identical at any level)")
	noCache := flag.Bool("no-cache", false, "disable run memoization: re-simulate every cell")
	cacheDir := flag.String("cache-dir", "", "persistent simulation cache directory (default: the user cache dir)")
	flag.Parse()
	run := bench.NewRunner()
	run.SetParallel(*parallel)

	if *verify {
		runVerify(*n)
		return
	}
	// Verification runs are real-data checks and never cached; the Table I
	// application cells below are deterministic and memoize like any sweep.
	cached, err := run.EnableDefaultCache("asp", *noCache, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asp:", err)
		os.Exit(1)
	}
	type job struct {
		m *topology.Machine
		n int
	}
	var jobs []job
	switch *machine {
	case "":
		jobs = []job{{topology.Zoot(), 16384}, {topology.IG(), 32768}}
	default:
		m, err := topology.LoadMachine(*machine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "asp:", err)
			os.Exit(2)
		}
		dim := *n
		if dim == 0 {
			dim = 16384
			if m.Name == "IG" {
				dim = 32768
			}
		}
		jobs = []job{{m, dim}}
	}
	for _, j := range jobs {
		run.RunTable1(j.m, j.n, *sample).Render(os.Stdout)
		fmt.Println()
	}
	if cached {
		run.ReportCacheCounts("asp")
	}
}

func runVerify(n int) {
	if n == 0 {
		n = 64
	}
	m := topology.Dancer()
	want := asp.Sequential(asp.Generate(n, 3), n)
	bad := false
	_, _, err := mpi.Run(mpi.Options{Machine: m, Coll: core.New, WithData: true}, func(r *mpi.Rank) {
		res := asp.Run(r, asp.Config{N: n}, asp.Generate(n, 3))
		for i := res.Lo; i < res.Hi; i++ {
			for j := 0; j < n; j++ {
				if res.Dist[(i-res.Lo)*n+j] != want[i*n+j] {
					bad = true
				}
			}
		}
	})
	if err != nil || bad {
		fmt.Fprintf(os.Stderr, "asp: verification FAILED (err=%v, mismatch=%v)\n", err, bad)
		os.Exit(1)
	}
	fmt.Printf("asp: %d^2 distributed solve matches the sequential solver on %s (%d ranks)\n",
		n, m.Name, m.NCores())
}
