package main

import (
	"fmt"
	"math/rand/v2"
)

// cellSpec is one measurement cell as the benchmark generates it: plain
// data, so a workload's inputs can be serialized, compared byte for byte,
// and looked up in the pinned reference.
type cellSpec struct {
	Machine  string `json:"machine"`
	Comp     string `json:"comp"`
	Op       string `json:"op"`
	Size     int64  `json:"size"`
	NP       int    `json:"np"`
	Root     int    `json:"root"`
	Iters    int    `json:"iters"`
	OffCache bool   `json:"offcache"`
}

// key names the cell in the reference table.
func (c cellSpec) key() string {
	return fmt.Sprintf("%s|%s|%s|%d|np=%d|root=%d|iters=%d|oc=%t",
		c.Machine, c.Comp, c.Op, c.Size, c.NP, c.Root, c.Iters, c.OffCache)
}

// paperComps are the five configurations of the paper's Figures 5-8.
var paperComps = []string{"Tuned-SM", "Tuned-KNEM", "MPICH2-SM", "MPICH2-KNEM", "KNEM-Coll"}

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
)

// paperLadder is the size ladder of paper_sweep, largest first: it spans
// the paper's 32 KiB-8 MiB range on both sides of IG's 5 MiB per-socket
// cache. Alltoall stops at 512 KiB per pair (24 MiB per rank), already far
// off-cache; its larger rungs cost seconds each on the copy-in/copy-out
// components and would leave room for one round per run.
var paperLadder = map[string][]int64{
	"alltoall": {512 * kib, 128 * kib, 32 * kib},
	"bcast":    {8 * mib, 2 * mib, 512 * kib, 128 * kib, 32 * kib},
	"gather":   {8 * mib, 2 * mib, 512 * kib, 128 * kib, 32 * kib},
}

// paperOps is the round order: the longest cells first, so the worker
// pool's tail at the end of a round is made of short cells.
var paperOps = []string{"alltoall", "bcast", "gather"}

// paperRoots are the roots a seed may give a rooted paper_sweep cell: one
// core on each of six of IG's eight sockets, on both boards.
var paperRoots = []int{0, 5, 11, 23, 29, 47}

// paperCells returns one paper_sweep round: the five paper components
// crossed with bcast, gather and alltoall on the size ladder, uncached,
// off-cache, one timed iteration, on IG's 48 cores. The seed picks each
// rooted cell's root; the set of cells and their order are fixed, so the
// host work per round does not depend on the seed.
func paperCells(seed int64) []cellSpec {
	rng := newRand(seed, 1)
	var cells []cellSpec
	for _, op := range paperOps {
		for _, comp := range paperComps {
			for _, size := range paperLadder[op] {
				root := 0
				if op != "alltoall" {
					root = paperRoots[rng.IntN(len(paperRoots))]
				}
				cells = append(cells, cellSpec{
					Machine: "IG", Comp: comp, Op: op, Size: size, NP: 48,
					Root: root, Iters: 1, OffCache: true,
				})
			}
		}
	}
	return cells
}

// clusterRoots are the roots a seed may give the cluster_10k broadcast:
// node leaders and non-leaders at both ends and the middle of the
// 10,240-rank cluster.
var clusterRoots = []int{0, 1, 127, 128, 5000, 5120, 10112, 10239}

// clusterCell returns the cluster_10k cell: a 64 KiB Hier-Tree broadcast
// over the 80 x 128-core switch cluster, rooted where the seed says.
func clusterCell(seed int64) cellSpec {
	rng := newRand(seed, 2)
	return cellSpec{
		Machine: clusterName, Comp: "Hier-Tree", Op: "bcast", Size: 64 * kib,
		NP: clusterNodes * clusterCores, Root: clusterRoots[rng.IntN(len(clusterRoots))],
		Iters: 1, OffCache: true,
	}
}

// servedMachines are the machines of served_batch, with their core counts.
var servedMachines = []struct {
	Name  string
	Cores int
}{{"Zoot", 16}, {"Dancer", 8}}

// servedUniverse returns every cell served_batch can request on machine
// mi: the paper components x five ops x five sizes x on/off-cache x full
// and half occupancy. Small cells: each simulates in about a millisecond.
func servedUniverse(mi int) []cellSpec {
	m := servedMachines[mi]
	var out []cellSpec
	for _, comp := range paperComps {
		for _, op := range []string{"bcast", "gather", "scatter", "allgather", "alltoall"} {
			for size := kib; size <= 256*kib; size *= 4 {
				for _, oc := range []bool{false, true} {
					for _, np := range []int{m.Cores, m.Cores / 2} {
						out = append(out, cellSpec{
							Machine: m.Name, Comp: comp, Op: op, Size: size, NP: np,
							Iters: 1, OffCache: oc,
						})
					}
				}
			}
		}
	}
	return out
}

// Shape of a served_batch session (see servedSession). The traffic mix is
// an assumption, not a measured deployment: a client recurs three in four
// cells from its own earlier batches, and sends three in four batches to
// Zoot.
const (
	servedClients = 2
	servedBatches = 64 // per client per session; the server restarts after half
	servedBatch   = 16 // cells per batch
	servedFresh   = 4  // new cells in a client's later batches on a machine
)

// servedReq is one planned POST /v1/cells batch.
type servedReq struct {
	Machine int   `json:"machine"` // index into servedMachines
	Cells   []int `json:"cells"`   // indexes into servedUniverse(Machine)
}

// servedPlan is one served_batch session: an opening batch, sent alone to
// the freshly started server, then each client's closed-loop sequence. The
// server restarts between each client's first and second half.
type servedPlan struct {
	Opening servedReq                  `json:"opening"`
	Clients [servedClients][]servedReq `json:"clients"`
}

// servedSession returns session s of a served_batch run. The opening
// batch holds Zoot cells no client requests. Every fourth client batch
// goes to Dancer, the rest to Zoot. A client's first batch on a machine
// holds only cells it has not requested before; each later one draws
// servedFresh cells fresh and recurs the rest from the client's own
// earlier batches on that machine. Clients draw fresh cells from disjoint
// pools, so which cells miss never depends on how the two clients
// interleave. The plan is a pure function of (seed, s).
func servedSession(seed int64, s int) servedPlan {
	rng := newRand(seed, 3+uint64(s))
	var plan servedPlan
	pools := make([][servedClients][]int, len(servedMachines))
	for mi := range servedMachines {
		perm := rng.Perm(len(servedUniverse(mi)))
		if mi == 0 {
			plan.Opening = servedReq{Machine: 0, Cells: perm[:servedBatch]}
			perm = perm[servedBatch:]
		}
		for i, c := range perm {
			pools[mi][i%servedClients] = append(pools[mi][i%servedClients], c)
		}
	}
	for k := range plan.Clients {
		drawn := make([]int, len(servedMachines)) // fresh cells taken per machine
		history := make([][]int, len(servedMachines))
		for j := 0; j < servedBatches; j++ {
			mi := 0
			if j%4 == 3 {
				mi = 1
			}
			req := servedReq{Machine: mi}
			nfresh := servedBatch
			if len(history[mi]) > 0 {
				nfresh = servedFresh
				for _, h := range rng.Perm(len(history[mi]))[:servedBatch-nfresh] {
					req.Cells = append(req.Cells, history[mi][h])
				}
			}
			next := pools[mi][k][drawn[mi] : drawn[mi]+nfresh]
			drawn[mi] += nfresh
			req.Cells = append(req.Cells, next...)
			history[mi] = append(history[mi], next...)
			rng.Shuffle(len(req.Cells), func(a, b int) { req.Cells[a], req.Cells[b] = req.Cells[b], req.Cells[a] })
			plan.Clients[k] = append(plan.Clients[k], req)
		}
	}
	return plan
}

// newRand returns the generator of one input stream of a seeded run.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}
