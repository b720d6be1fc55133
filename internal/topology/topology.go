// Package topology models intra-node hardware: cores, shared caches, NUMA
// memory domains, and the link graph connecting them (memory buses, FSB,
// QPI, HyperTransport, inter-board interlinks).
//
// The model is the one the paper's collective algorithms consume through
// hwloc: which cores share a cache, which cores share a NUMA memory bank,
// and how far apart two cores are. It additionally carries the quantities
// the memory simulator needs: link capacities in bytes/second and routed
// paths between cores and memory.
//
// A machine is a graph of vertices connected by capacitated links. Cores
// attach to vertices; each memory domain's DRAM hangs off its vertex
// through a bus link; each cache group has a local access link. Routing is
// shortest-path by hop count with deterministic tie-breaking.
package topology

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Link is a capacitated resource (a bus, interconnect hop, cache port, core
// copy engine, or DMA engine). Index is dense within a Machine so users can
// keep per-link state in slices.
type Link struct {
	Index int
	Name  string
	// BW is the link capacity in bytes per second.
	BW float64
	// Lat is the per-traversal latency of the link in seconds. Intra-node
	// links have zero latency (the paper's model charges control latency
	// separately); cluster fabric links carry real wire latency.
	Lat float64
}

// Core is a processing unit. Every core has a private copy engine link
// modelling the bandwidth a single core can move by itself (load/store
// streams): one core can rarely saturate a memory bus, which is exactly the
// effect the paper's receiver-parallel collectives exploit.
type Core struct {
	ID     int
	Vertex int
	Domain *MemDomain
	Group  *CacheGroup
	Engine *Link
}

// MemDomain is a NUMA memory domain: a set of cores with a local DRAM bus.
// Board groups domains that share a physical board (or blade); machines
// with a flat interconnect put every domain on board 0.
type MemDomain struct {
	ID     int
	Vertex int
	Board  int
	Bus    *Link
	Cores  []*Core
}

// CacheGroup is a set of cores sharing a last-level cache.
type CacheGroup struct {
	ID     int
	Vertex int
	Cores  []*Core
	// Size is the aggregate shared cache capacity in bytes.
	Size int64
	// Port is the access link used when a transfer is served from this
	// cache instead of DRAM.
	Port *Link
}

// Spec carries per-machine scalar parameters.
type Spec struct {
	// CoreCopyBW is the copy bandwidth of a single core (bytes/s).
	CoreCopyBW float64
	// KernelTrap is the cost of entering the kernel for one KNEM ioctl
	// (the ~100 ns trap the paper cites in §V-A).
	KernelTrap float64
	// CopySetup is the in-kernel per-copy setup cost beyond the bare
	// trap: region lookup, iovec walk, copy bookkeeping. It is what makes
	// kernel-assisted copies unprofitable below ~16 KiB.
	CopySetup float64
	// PinPerPage is the cost of pinning one 4 KiB page when declaring a
	// region (get_user_pages); registration cost therefore scales with
	// region size, which is why re-registering the same buffer for every
	// peer or fragment hurts (§III-A).
	PinPerPage float64
	// CtrlLatency is the latency of a small out-of-band control message
	// through the shared-memory transport.
	CtrlLatency float64
	// Flops is the sustained per-core floating/integer op rate, used by
	// applications to charge compute time.
	Flops float64
	// DMABw, when > 0, is the bandwidth of a per-domain I/OAT-style DMA
	// copy engine.
	DMABw float64
}

// Machine is a complete hardware model. A machine must not be mutated
// once its Fingerprint has been asked for: the fingerprint is computed
// on that first call and cached for the machine's lifetime.
type Machine struct {
	Name    string
	Spec    Spec
	Links   []*Link
	Cores   []*Core
	Domains []*MemDomain
	Groups  []*CacheGroup
	DMA     []*Link // per-domain DMA engine links (nil entries if disabled)

	nVerts int
	adj    [][]edge // adjacency by vertex
	hasLat bool     // any interconnect link with nonzero latency

	// Routes. A single machine routes every vertex pair in Build and keeps
	// the tables; lats holds the summed link latency along each route. A
	// composite cluster machine keeps no table of size V² and composes each
	// route from its node templates and fabric instead (cr, routes.go).
	paths [][][]*Link
	hops  [][]int
	lats  [][]float64
	cr    *clusterRoutes

	// fp caches Fingerprint, computed on first use under fpOnce.
	fpOnce sync.Once
	fp     string
}

type edge struct {
	to   int
	link *Link
}

// Builder constructs machines.
type Builder struct {
	m      *Machine
	vnames []string
}

// NewBuilder starts a machine description.
func NewBuilder(name string, spec Spec) *Builder {
	return &Builder{m: &Machine{Name: name, Spec: spec}}
}

// Vertex adds a routing vertex and returns its id.
func (b *Builder) Vertex(name string) int {
	b.vnames = append(b.vnames, name)
	b.m.nVerts++
	return b.m.nVerts - 1
}

func (b *Builder) newLink(name string, bw float64) *Link {
	if bw <= 0 {
		panic(fmt.Sprintf("topology: link %s with non-positive bandwidth", name))
	}
	l := &Link{Index: len(b.m.Links), Name: name, BW: bw}
	b.m.Links = append(b.m.Links, l)
	return l
}

// Connect adds a bidirectional interconnect link between two vertices.
func (b *Builder) Connect(u, v int, name string, bw float64) *Link {
	return b.ConnectLat(u, v, name, bw, 0)
}

// ConnectLat adds a bidirectional interconnect link with a per-traversal
// latency (cluster fabric links; intra-node links use Connect).
func (b *Builder) ConnectLat(u, v int, name string, bw, lat float64) *Link {
	l := b.newLink(name, bw)
	l.Lat = lat
	for len(b.m.adj) < b.m.nVerts {
		b.m.adj = append(b.m.adj, nil)
	}
	b.m.adj[u] = append(b.m.adj[u], edge{to: v, link: l})
	b.m.adj[v] = append(b.m.adj[v], edge{to: u, link: l})
	return l
}

// Domain adds a memory domain whose DRAM attaches at vertex through a bus
// of the given bandwidth, on board 0. Use DomainOnBoard for multi-board
// machines.
func (b *Builder) Domain(vertex int, busBW float64) *MemDomain {
	return b.DomainOnBoard(vertex, busBW, 0)
}

// DomainOnBoard adds a memory domain on the given board.
func (b *Builder) DomainOnBoard(vertex int, busBW float64, board int) *MemDomain {
	d := &MemDomain{ID: len(b.m.Domains), Vertex: vertex, Board: board}
	d.Bus = b.newLink(fmt.Sprintf("mem%d", d.ID), busBW)
	b.m.Domains = append(b.m.Domains, d)
	b.m.DMA = append(b.m.DMA, nil)
	if b.m.Spec.DMABw > 0 {
		b.m.DMA[d.ID] = b.newLink(fmt.Sprintf("dma%d", d.ID), b.m.Spec.DMABw)
	}
	return d
}

// Group adds a cache group at vertex with the given capacity and port
// bandwidth.
func (b *Builder) Group(vertex int, size int64, portBW float64) *CacheGroup {
	g := &CacheGroup{ID: len(b.m.Groups), Vertex: vertex, Size: size}
	g.Port = b.newLink(fmt.Sprintf("cache%d", g.ID), portBW)
	b.m.Groups = append(b.m.Groups, g)
	return g
}

// Core adds a core at vertex, belonging to the given domain and cache group.
func (b *Builder) Core(vertex int, d *MemDomain, g *CacheGroup) *Core {
	c := &Core{ID: len(b.m.Cores), Vertex: vertex, Domain: d, Group: g}
	c.Engine = b.newLink(fmt.Sprintf("core%d", c.ID), b.m.Spec.CoreCopyBW)
	b.m.Cores = append(b.m.Cores, c)
	d.Cores = append(d.Cores, c)
	if g != nil {
		g.Cores = append(g.Cores, c)
	}
	return c
}

// Build finalizes the machine: routes all vertex pairs and validates the
// model. It panics on malformed descriptions (disconnected graphs, domains
// without cores).
func (b *Builder) Build() *Machine {
	m := b.finish()
	m.paths, m.hops = routeAll(m.Name, m.adj)
	if m.hasLat {
		m.lats = pathLats(m.paths)
	}
	return m
}

// finish validates the machine and returns it unrouted.
func (b *Builder) finish() *Machine {
	m := b.m
	for len(m.adj) < m.nVerts {
		m.adj = append(m.adj, nil)
	}
	if len(m.Cores) == 0 {
		panic("topology: machine with no cores")
	}
	for _, d := range m.Domains {
		if len(d.Cores) == 0 {
			panic(fmt.Sprintf("topology: domain %d has no cores", d.ID))
		}
	}
	m.hasLat = slices.ContainsFunc(m.Links, func(l *Link) bool { return l.Lat != 0 })
	return m
}

// routeAll computes shortest paths between all vertex pairs of the graph
// adj (BFS per source, deterministic neighbor order) and their hop counts.
// It panics, naming the graph name, if some vertex is unreachable.
func routeAll(name string, adj [][]edge) ([][][]*Link, [][]int) {
	n := len(adj)
	paths := make([][][]*Link, n)
	hops := make([][]int, n)
	for s := 0; s < n; s++ {
		prevEdge := make([]edge, n)
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range adj[u] {
				if dist[e.to] == -1 {
					dist[e.to] = dist[u] + 1
					prevEdge[e.to] = edge{to: u, link: e.link}
					queue = append(queue, e.to)
				}
			}
		}
		paths[s] = make([][]*Link, n)
		hops[s] = dist
		for t := 0; t < n; t++ {
			if dist[t] < 0 {
				panic(fmt.Sprintf("topology: %s: vertex %d unreachable from %d", name, t, s))
			}
			var rev []*Link
			for v := t; v != s; v = prevEdge[v].to {
				rev = append(rev, prevEdge[v].link)
			}
			slices.Reverse(rev)
			paths[s][t] = rev
		}
	}
	return paths, hops
}

// pathLats sums the link latencies along every path, in path order.
func pathLats(paths [][][]*Link) [][]float64 {
	lats := make([][]float64, len(paths))
	for s, row := range paths {
		lats[s] = make([]float64, len(row))
		for t, p := range row {
			var sum float64
			for _, l := range p {
				sum += l.Lat
			}
			lats[s][t] = sum
		}
	}
	return lats
}

// HasLatency reports whether any interconnect link carries a nonzero
// latency (true only for cluster machines; the fast path of the transports
// skips latency lookups entirely when false).
func (m *Machine) HasLatency() bool { return m.hasLat }

// PathLatency returns the summed link latency along the route between two
// vertices (zero on machines without latencied links).
func (m *Machine) PathLatency(u, v int) float64 {
	switch {
	case !m.hasLat:
		return 0
	case m.cr != nil:
		return m.cr.latency(m.Links, u, v)
	}
	return m.lats[u][v]
}

// NVerts returns the number of routing vertices.
func (m *Machine) NVerts() int { return m.nVerts }

// Edge is one interconnect connection as declared by Connect/ConnectLat,
// recoverable from a built machine (CompileCluster replicates node graphs
// through it).
type Edge struct {
	U, V int
	Link *Link
}

// Edges returns every interconnect link with its endpoints, in a
// deterministic order (ascending lower endpoint, then declaration order).
// Bus, cache-port, core-engine, and DMA links have no endpoints and are not
// included.
func (m *Machine) Edges() []Edge {
	seen := make(map[*Link]bool)
	var out []Edge
	for u := 0; u < m.nVerts; u++ {
		for _, e := range m.adj[u] {
			if seen[e.link] {
				continue
			}
			seen[e.link] = true
			out = append(out, Edge{U: u, V: e.to, Link: e.link})
		}
	}
	return out
}

// VertexPath returns the interconnect links between two vertices. On a
// single machine the slice is shared and must not be mutated; on a
// composite cluster machine each call builds a new one.
func (m *Machine) VertexPath(u, v int) []*Link {
	if m.cr != nil {
		return m.cr.appendPath(nil, m.Links, u, v)
	}
	return m.paths[u][v]
}

// Hops returns the hop count between two vertices.
func (m *Machine) Hops(u, v int) int {
	if m.cr != nil {
		return m.cr.hops(u, v)
	}
	return m.hops[u][v]
}

// RouteNode reports how routes reach vertex v. On a composite cluster
// machine it returns the node holding v and that node's gateway vertex: a
// route between vertices u and v of different nodes, with gateways gu and
// gv, is VertexPath(u, gu), then VertexPath(gu, gv), then
// VertexPath(gv, v). The fabric switch belongs to no node: (-1, -1). A
// single machine is one node without a gateway: (0, -1).
func (m *Machine) RouteNode(v int) (node, gateway int) {
	if m.cr != nil {
		return m.cr.routeNode(v)
	}
	return 0, -1
}

// PathToDomain returns the links a core traverses to reach a domain's DRAM:
// the interconnect hops plus the domain's memory bus. The core's own copy
// engine is not included.
func (m *Machine) PathToDomain(c *Core, d *MemDomain) []*Link {
	return m.pathTo(c.Vertex, d.Vertex, d.Bus)
}

// PathToGroup returns the links a core traverses to read from a cache
// group: the interconnect hops plus the group's port.
func (m *Machine) PathToGroup(c *Core, g *CacheGroup) []*Link {
	return m.pathTo(c.Vertex, g.Vertex, g.Port)
}

// pathTo returns a new slice holding the route from u to v followed by last.
func (m *Machine) pathTo(u, v int, last *Link) []*Link {
	p := m.VertexPath(u, v)
	out := make([]*Link, len(p), len(p)+1)
	copy(out, p)
	return append(out, last)
}

// CoreDistance returns the hop distance between two cores' vertices. Cores
// in the same domain are distance 0 from each other in NUMA terms even if
// on different cache groups.
func (m *Machine) CoreDistance(a, b *Core) int { return m.Hops(a.Vertex, b.Vertex) }

// DomainDistance returns the hop distance between two domains.
func (m *Machine) DomainDistance(a, b *MemDomain) int { return m.Hops(a.Vertex, b.Vertex) }

// NCores returns the number of cores.
func (m *Machine) NCores() int { return len(m.Cores) }

// Boards returns the number of distinct boards.
func (m *Machine) Boards() int {
	max := 0
	for _, d := range m.Domains {
		if d.Board > max {
			max = d.Board
		}
	}
	return max + 1
}

// MaxDomainDistance returns the largest hop distance between any two
// domains; > 1 indicates a hierarchical interconnect (e.g. IG's two boards).
func (m *Machine) MaxDomainDistance() int {
	max := 0
	for _, a := range m.Domains {
		for _, b := range m.Domains {
			if h := m.Hops(a.Vertex, b.Vertex); h > max {
				max = h
			}
		}
	}
	return max
}

// MinBW returns the smallest capacity along a path; useful for bounds in
// tests.
func MinBW(path []*Link) float64 {
	min := math.Inf(1)
	for _, l := range path {
		if l.BW < min {
			min = l.BW
		}
	}
	return min
}

// PackedMapping returns the identity rank-to-core mapping: ranks fill
// domains in order (the dense placement MPI launchers default to).
func (m *Machine) PackedMapping(np int) []int {
	out := make([]int, np)
	for i := range out {
		out[i] = i
	}
	return out
}

// ScatterMapping distributes np ranks round-robin over the machine's
// domains, spreading memory pressure across all controllers. Once a domain
// runs out of cores, the remaining ranks take the unused cores in ID order.
func (m *Machine) ScatterMapping(np int) []int {
	out := make([]int, 0, np)
	next := make([]int, len(m.Domains))
	for len(out) < np {
		d := len(out) % len(m.Domains)
		if next[d] >= len(m.Domains[d].Cores) {
			// This domain is full; fall back to packed for the rest.
			used := make([]bool, m.NCores())
			for _, id := range out {
				used[id] = true
			}
			for c := 0; len(out) < np && c < m.NCores(); c++ {
				if !used[c] {
					out = append(out, c)
				}
			}
			return out
		}
		out = append(out, m.Domains[d].Cores[next[d]].ID)
		next[d]++
	}
	return out
}
