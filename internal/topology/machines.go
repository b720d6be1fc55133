package topology

import "fmt"

// This file defines the four experimental platforms of the paper's §VI-A.
// Link bandwidths and scalar costs are calibrated from the named hardware
// (memory generation and channel count, FSB vs QPI vs HyperTransport, cache
// sizes); they are not measurements of the authors' testbed, so absolute
// simulated times are indicative while relative behaviour (who contends on
// what) follows the hardware structure.

const (
	kb = 1 << 10
	mb = 1 << 20
	gb = 1e9 // bandwidth unit: 1 GB/s
)

// Zoot models the 16-core SMP: 4 sockets, quad-core Intel Xeon Tigerton
// E7340 at 2.40 GHz, 4 MB L2 shared per core pair, and a single SMP memory
// controller in the north-bridge connecting all sockets to shared memory.
// It is UMA: one memory domain, with per-socket front-side buses feeding a
// single DRAM bus — the classic "memory wall" layout of §I.
func Zoot() *Machine {
	b := NewBuilder("Zoot", Spec{
		CoreCopyBW:  2.2 * gb,
		KernelTrap:  100e-9,
		CopySetup:   500e-9,
		PinPerPage:  40e-9,
		CtrlLatency: 500e-9,
		Flops:       4.8e9,
	})
	nb := b.Vertex("northbridge")
	dom := b.Domain(nb, 6.4*gb) // single shared DRAM bus
	for s := 0; s < 4; s++ {
		sv := b.Vertex("socket")
		b.Connect(sv, nb, "fsb", 3.0*gb)
		for pair := 0; pair < 2; pair++ {
			g := b.Group(sv, 4*mb, 18*gb) // 4 MB L2 shared per pair
			for c := 0; c < 2; c++ {
				b.Core(sv, dom, g)
			}
		}
	}
	return b.Build()
}

// Dancer models the 8-core NUMA node: 2 sockets, quad-core Intel Xeon
// Nehalem-EP E5520 at 2.27 GHz, 8 MB L3 and 2 GB of memory per socket,
// QPI between the sockets. Hyper-threading disabled.
func Dancer() *Machine {
	b := NewBuilder("Dancer", Spec{
		CoreCopyBW:  4.5 * gb,
		KernelTrap:  100e-9,
		CopySetup:   500e-9,
		PinPerPage:  40e-9,
		CtrlLatency: 300e-9,
		Flops:       5.5e9,
	})
	v := []int{b.Vertex("numa0"), b.Vertex("numa1")}
	b.Connect(v[0], v[1], "qpi", 11*gb)
	for s := 0; s < 2; s++ {
		dom := b.Domain(v[s], 16*gb) // triple-channel DDR3
		g := b.Group(v[s], 8*mb, 30*gb)
		for c := 0; c < 4; c++ {
			b.Core(v[s], dom, g)
		}
	}
	return b.Build()
}

// Saturn models the 16-core NUMA node: 2 sockets, octo-core Intel Xeon
// Nehalem-EX X7550 at 2.00 GHz, 18 MB L3 and 32 GB of memory per socket.
// Hyper-threading enabled but unused.
func Saturn() *Machine {
	b := NewBuilder("Saturn", Spec{
		CoreCopyBW:  4.0 * gb,
		KernelTrap:  100e-9,
		CopySetup:   500e-9,
		PinPerPage:  40e-9,
		CtrlLatency: 300e-9,
		Flops:       5.0e9,
	})
	v := []int{b.Vertex("numa0"), b.Vertex("numa1")}
	b.Connect(v[0], v[1], "qpi", 12*gb)
	for s := 0; s < 2; s++ {
		dom := b.Domain(v[s], 20*gb)
		g := b.Group(v[s], 18*mb, 32*gb)
		for c := 0; c < 8; c++ {
			b.Core(v[s], dom, g)
		}
	}
	return b.Build()
}

// IG models the 48-core many-core NUMA node: 8 sockets, six-core AMD
// Opteron 8439 SE at 2.8 GHz, 5 MB of L3 and 16 GB of memory per NUMA node.
// Sockets sit four to a board (HyperTransport-connected, complete graph);
// the two boards are joined by a low-performance interlink (§VI-A), which
// gives the machine a genuinely hierarchical interconnect and makes it the
// paper's stress platform for topology-aware collectives.
func IG() *Machine {
	b := NewBuilder("IG", Spec{
		CoreCopyBW:  3.0 * gb,
		KernelTrap:  100e-9,
		CopySetup:   500e-9,
		PinPerPage:  40e-9,
		CtrlLatency: 400e-9,
		Flops:       5.6e9,
	})
	var v [8]int
	for n := 0; n < 8; n++ {
		v[n] = b.Vertex("numa")
	}
	// Complete HT graph within each board.
	for board := 0; board < 2; board++ {
		base := board * 4
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.Connect(v[base+i], v[base+j], "ht", 6*gb)
			}
		}
	}
	// Low-performance inter-board interlink: each socket reaches the
	// other board through two bridge links slightly slower than on-board
	// HT, and most cross-board routes take two hops (transiting on-board
	// links). Cross-board communication therefore pays in hops and in
	// shared capacity — the "low performance interlink" of §VI-A that
	// makes IG the paper's topology-stress platform — while staying wide
	// enough that a handful of full-rate streams (the hierarchical
	// broadcast's one-per-NUMA-node transfers) do not bottleneck on it.
	for i := 0; i < 4; i++ {
		b.Connect(v[i], v[i+4], "interboard", 5.0*gb)
		b.Connect(v[i], v[4+(i+1)%4], "interboard", 5.0*gb)
	}
	for n := 0; n < 8; n++ {
		dom := b.DomainOnBoard(v[n], 10*gb, n/4) // dual-channel DDR2-800 class
		g := b.Group(v[n], 5*mb, 24*gb)
		for c := 0; c < 6; c++ {
			b.Core(v[n], dom, g)
		}
	}
	return b.Build()
}

// Machines returns the four evaluation platforms keyed by name.
func Machines() map[string]*Machine {
	return map[string]*Machine{
		"Zoot":   Zoot(),
		"Dancer": Dancer(),
		"Saturn": Saturn(),
		"IG":     IG(),
	}
}

// ByName returns the named evaluation platform, or nil.
func ByName(name string) *Machine {
	switch name {
	case "Zoot", "zoot":
		return Zoot()
	case "Dancer", "dancer":
		return Dancer()
	case "Saturn", "saturn":
		return Saturn()
	case "IG", "ig":
		return IG()
	case "MC128", "mc128":
		return ManyCore(128)
	case "MC512", "mc512":
		return ManyCore(512)
	}
	return nil
}

// ManyCore models the post-paper "many-core" target of the ROADMAP: a
// 128- or 512-core NUMA node in the IG mold (eight-core sockets behind a
// hierarchical interconnect) with bandwidths scaled to a modern DDR4/IF
// class part. The paper's largest platform is the 48-core IG; these
// machines are the scale points the engine and sweep layers are gated on
// (cmd/simbench's core/bcast_cell_128 and core/bcast_cell_512 cells,
// `make scale-smoke`).
func ManyCore(cores int) *Machine {
	spec := Spec{
		CoreCopyBW:  8 * gb,
		KernelTrap:  100e-9,
		CopySetup:   500e-9,
		PinPerPage:  40e-9,
		CtrlLatency: 250e-9,
		Flops:       16e9,
	}
	switch cores {
	case 128:
		return Synthetic(SyntheticSpec{
			Name: "MC128", Boards: 2, SocketsPerBoard: 8, CoresPerSocket: 8,
			BusBW: 35 * gb, LinkBW: 18 * gb, BoardLinkBW: 14 * gb,
			CacheSize: 32 * mb, CachePortBW: 60 * gb,
			Spec: spec,
		})
	case 512:
		return Synthetic(SyntheticSpec{
			Name: "MC512", Boards: 4, SocketsPerBoard: 16, CoresPerSocket: 8,
			BusBW: 35 * gb, LinkBW: 18 * gb, BoardLinkBW: 14 * gb,
			CacheSize: 32 * mb, CachePortBW: 60 * gb,
			Spec: spec,
		})
	}
	panic(fmt.Sprintf("topology: ManyCore(%d): supported core counts are 128 and 512", cores))
}

// SyntheticSpec parameterizes Synthetic machines for tests and what-if
// studies.
type SyntheticSpec struct {
	Name            string // machine name (default "synthetic")
	Boards          int
	SocketsPerBoard int
	CoresPerSocket  int
	BusBW           float64 // per-domain DRAM bus
	LinkBW          float64 // intra-board socket interconnect
	BoardLinkBW     float64 // inter-board link (ignored if Boards == 1)
	CacheSize       int64
	CachePortBW     float64
	Spec            Spec
}

// Synthetic builds a regular machine: Boards × SocketsPerBoard sockets, one
// memory domain and cache group per socket, complete interconnect within a
// board, and a chain of board links between board heads.
func Synthetic(s SyntheticSpec) *Machine {
	if s.Boards < 1 || s.SocketsPerBoard < 1 || s.CoresPerSocket < 1 {
		panic("topology: Synthetic with non-positive shape")
	}
	name := s.Name
	if name == "" {
		name = "synthetic"
	}
	b := NewBuilder(name, s.Spec)
	verts := make([]int, 0, s.Boards*s.SocketsPerBoard)
	for board := 0; board < s.Boards; board++ {
		base := len(verts)
		for i := 0; i < s.SocketsPerBoard; i++ {
			verts = append(verts, b.Vertex("numa"))
		}
		for i := 0; i < s.SocketsPerBoard; i++ {
			for j := i + 1; j < s.SocketsPerBoard; j++ {
				b.Connect(verts[base+i], verts[base+j], "link", s.LinkBW)
			}
		}
		if board > 0 {
			b.Connect(verts[(board-1)*s.SocketsPerBoard], verts[base], "boardlink", s.BoardLinkBW)
		}
	}
	for i, v := range verts {
		dom := b.DomainOnBoard(v, s.BusBW, i/s.SocketsPerBoard)
		g := b.Group(v, s.CacheSize, s.CachePortBW)
		for c := 0; c < s.CoresPerSocket; c++ {
			b.Core(v, dom, g)
		}
	}
	return b.Build()
}
