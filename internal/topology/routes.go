package topology

// Template routes for composite cluster machines. Every node of a cluster
// replicates a node machine, and the only way in or out of a node is its
// gateway vertex, so a shortest route never leaves a node it starts and
// ends in, and a route between two nodes crosses each of their gateways
// once. CompileCluster therefore routes each distinct node machine once, as
// a template, plus the small fabric graph of gateways and switch, and every
// composite route is composed from them:
//
//	template(u → gateway) + fabric(gateway → gateway') + template(gateway' → v)
//
// The template is built by exactly the builder calls that replicate the
// node (see replicate), so template link i is composite link
// FirstLink+i, template vertex j is composite vertex firstVert+j, and every
// template vertex lists its edges in the same order as its replica. BFS
// breaks ties by that order, so a composed route is link-for-link the route
// an all-pairs BFS over the composite graph finds. The source machine's own
// order is not always the replica's (Edges() re-declares edges by lower
// endpoint), so routing the source machine instead would break ties
// differently. The fabric BFS runs over the composite adjacency of the
// fabric vertices, keeping their neighbour order too.

// clusterRoutes is the route structure of a composite cluster machine. It
// is built once in CompileCluster and read-only afterwards.
type clusterRoutes struct {
	nodes []nodeRoutes
	// vnode[v] is the node holding composite vertex v; the switch vertex
	// holds len(nodes), its fabric index.
	vnode []int32
	// Fabric routes in composite links, hop counts and latencies between
	// fabric vertices: node k's gateway has fabric index k, the switch
	// len(nodes).
	fpath [][][]*Link
	fhops [][]int
	flat  [][]float64
	// nodeLat is set when some template link carries latency. Without it,
	// a route's latency is its fabric piece's: node links add +0.
	nodeLat bool
}

// nodeRoutes places one node's template in the composite machine.
type nodeRoutes struct {
	tmpl      *Machine
	firstVert int
	firstLink int
	gw        int // the gateway, as a template vertex
}

// index fills vnode and routes the fabric of the composite machine g, whose
// switch vertex is sw (-1 without one), once r.nodes is complete.
func (r *clusterRoutes) index(g *Machine, sw int) {
	r.vnode = make([]int32, g.nVerts)
	verts := make([]int, 0, len(r.nodes)+1) // composite vertex of each fabric index
	for k, n := range r.nodes {
		for v := range n.tmpl.nVerts {
			r.vnode[n.firstVert+v] = int32(k)
		}
		verts = append(verts, n.firstVert+n.gw)
		r.nodeLat = r.nodeLat || n.tmpl.hasLat
	}
	if sw >= 0 {
		r.vnode[sw] = int32(len(r.nodes))
		verts = append(verts, sw)
	}
	fadj := make([][]edge, len(verts))
	for f, v := range verts {
		for _, e := range g.adj[v] {
			if to := r.fabricIndex(e.to); to >= 0 {
				fadj[f] = append(fadj[f], edge{to: to, link: e.link})
			}
		}
	}
	r.fpath, r.fhops = routeAll(g.Name+" fabric", fadj)
	if g.hasLat {
		r.flat = pathLats(r.fpath)
	}
}

// fabricIndex returns the fabric index of composite vertex v, or -1 when v
// is inside a node.
func (r *clusterRoutes) fabricIndex(v int) int {
	k := int(r.vnode[v])
	if k < len(r.nodes) && v != r.nodes[k].firstVert+r.nodes[k].gw {
		return -1
	}
	return k
}

// local returns the node holding composite vertex v and v as a template
// vertex, or nil for the switch.
func (r *clusterRoutes) local(v int) (*nodeRoutes, int) {
	k := int(r.vnode[v])
	if k == len(r.nodes) {
		return nil, 0
	}
	n := &r.nodes[k]
	return n, v - n.firstVert
}

func (r *clusterRoutes) routeNode(v int) (node, gateway int) {
	n, _ := r.local(v)
	if n == nil {
		return -1, -1
	}
	return int(r.vnode[v]), n.firstVert + n.gw
}

// appendPath appends the composite links of the route from u to v to dst,
// piece by piece in path order.
func (r *clusterRoutes) appendPath(dst, links []*Link, u, v int) []*Link {
	nu, lu := r.local(u)
	nv, lv := r.local(v)
	if r.vnode[u] == r.vnode[v] {
		if nu == nil {
			return dst
		}
		return nu.appendLocal(dst, links, lu, lv)
	}
	if nu != nil {
		dst = nu.appendLocal(dst, links, lu, nu.gw)
	}
	dst = append(dst, r.fpath[r.vnode[u]][r.vnode[v]]...)
	if nv != nil {
		dst = nv.appendLocal(dst, links, nv.gw, lv)
	}
	return dst
}

// appendLocal appends the composite links of the template route s → t.
func (n *nodeRoutes) appendLocal(dst, links []*Link, s, t int) []*Link {
	for _, l := range n.tmpl.paths[s][t] {
		dst = append(dst, links[n.firstLink+l.Index])
	}
	return dst
}

func (r *clusterRoutes) hops(u, v int) int {
	nu, lu := r.local(u)
	nv, lv := r.local(v)
	if r.vnode[u] == r.vnode[v] {
		if nu == nil {
			return 0
		}
		return nu.tmpl.hops[lu][lv]
	}
	h := r.fhops[r.vnode[u]][r.vnode[v]]
	if nu != nil {
		h += nu.tmpl.hops[lu][nu.gw]
	}
	if nv != nil {
		h += nv.tmpl.hops[nv.gw][lv]
	}
	return h
}

// latency sums the link latencies of the route from u to v in path order,
// as the all-pairs table of a single machine does. Without latency inside
// the nodes that sum is the fabric piece's, so the lookup is O(1) and
// bit-identical; otherwise the route is built and summed.
func (r *clusterRoutes) latency(links []*Link, u, v int) float64 {
	if !r.nodeLat {
		if r.vnode[u] == r.vnode[v] {
			return 0
		}
		return r.flat[r.vnode[u]][r.vnode[v]]
	}
	var sum float64
	for _, l := range r.appendPath(nil, links, u, v) {
		sum += l.Lat
	}
	return sum
}
