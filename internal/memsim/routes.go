package memsim

import "repro/internal/topology"

// routeTable interns every link path startCopy charges, so a copy never
// builds one. A route runs from a core vertex to a target: a domain's DRAM
// (target d.ID, bus included) or a cache group's port (target
// len(Domains)+g.ID, port included).
//
// Within one node the route is one interned piece, local. A single machine
// is one node, so all its routes are. Across the nodes of a compiled
// cluster the route is three pieces, walked in path order: up (the core
// vertex to its node's gateway), fab (gateway to gateway over the fabric)
// and down (the target node's gateway to the target). That is
// topology.Machine.RouteNode's composition. Memory is
// O(nodes·template² + nodes²) instead of O(vertices·targets).
//
// All slices are shared and must never be mutated.
type routeTable struct {
	nd    int     // number of domains: targets below nd are DRAM, the rest cache ports
	vnode []int32 // node of each vertex
	tnode []int32 // node of each target
	tloc  []int32 // index of each target among its node's targets
	local [][][]*topology.Link
	up    [][]*topology.Link
	fab   [][][]*topology.Link
	down  [][]*topology.Link
}

func newRouteTable(m *topology.Machine) routeTable {
	type target struct {
		vertex int
		last   *topology.Link
	}
	targets := make([]target, 0, len(m.Domains)+len(m.Groups))
	for _, d := range m.Domains {
		targets = append(targets, target{d.Vertex, d.Bus})
	}
	for _, g := range m.Groups {
		targets = append(targets, target{g.Vertex, g.Port})
	}
	// route is the interned path from u to target t.
	route := func(u int, t target) []*topology.Link {
		p := m.VertexPath(u, t.vertex)
		out := make([]*topology.Link, len(p)+1)
		copy(out, p)
		out[len(p)] = t.last
		return out
	}

	nv := m.NVerts()
	r := routeTable{nd: len(m.Domains), vnode: make([]int32, nv)}
	var gateways []int // gateway vertex of each node
	for v := range nv {
		node, gw := m.RouteNode(v)
		r.vnode[v] = int32(node)
		for node >= len(gateways) {
			gateways = append(gateways, -1)
		}
		if node >= 0 {
			gateways[node] = gw
		}
	}
	perNode := make([][]int, len(gateways)) // targets of each node
	r.tnode = make([]int32, len(targets))
	r.tloc = make([]int32, len(targets))
	for t, tg := range targets {
		k := r.vnode[tg.vertex]
		r.tnode[t], r.tloc[t] = k, int32(len(perNode[k]))
		perNode[k] = append(perNode[k], t)
	}

	r.local = make([][][]*topology.Link, nv)
	for _, c := range m.Cores {
		v := c.Vertex
		if r.local[v] != nil {
			continue
		}
		ts := perNode[r.vnode[v]]
		r.local[v] = make([][]*topology.Link, len(ts))
		for i, t := range ts {
			r.local[v][i] = route(v, targets[t])
		}
	}
	if len(gateways) == 1 {
		return r
	}
	r.up = make([][]*topology.Link, nv)
	for _, c := range m.Cores {
		if v := c.Vertex; r.up[v] == nil {
			r.up[v] = m.VertexPath(v, gateways[r.vnode[v]])
		}
	}
	r.fab = make([][][]*topology.Link, len(gateways))
	for a, ga := range gateways {
		r.fab[a] = make([][]*topology.Link, len(gateways))
		for b, gb := range gateways {
			if a != b {
				r.fab[a][b] = m.VertexPath(ga, gb)
			}
		}
	}
	r.down = make([][]*topology.Link, len(targets))
	for t, tg := range targets {
		r.down[t] = route(gateways[r.tnode[t]], tg)
	}
	return r
}

// domain and group return the target index of a domain's DRAM and of a
// cache group's port.
func (r *routeTable) domain(d *topology.MemDomain) int { return d.ID }
func (r *routeTable) group(g *topology.CacheGroup) int { return r.nd + g.ID }

// useRoute charges the interned route from core vertex v to target t,
// piece by piece in path order, so the links' first-use order is the
// route's.
func (n *Net) useRoute(v, t int) {
	r := &n.routes
	if a, b := r.vnode[v], r.tnode[t]; a != b {
		n.useLinks(r.up[v])
		n.useLinks(r.fab[a][b])
		n.useLinks(r.down[t])
		return
	}
	n.useLinks(r.local[v][r.tloc[t]])
}

func (n *Net) useLinks(ls []*topology.Link) {
	for _, l := range ls {
		n.useLink(l)
	}
}
