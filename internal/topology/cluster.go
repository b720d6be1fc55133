package topology

import (
	"fmt"
)

// Cluster support: a declarative multi-node configuration (N nodes, each a
// .machine spec, joined by a modeled fabric of latency/bandwidth links
// and/or a central switch) compiled into one composite Machine. Every
// node's vertex/link/domain/cache/core structure is replicated into the
// composite graph and the node gateways are joined by fabric links, so the
// existing max-min-fair water-filling solver in internal/memsim resolves
// switch and uplink contention exactly like any intra-node bus: fabric
// links are first-class capacitated flows. Fabric latency rides on the
// links (Link.Lat) and is charged by the shared-memory transport's control
// path for cross-node messages.

// NodeSpec declares one cluster node: a name and the machine model it runs
// (a built-in name like "Dancer" or a .machine file reference, resolved by
// the MachineResolver given to CompileCluster).
type NodeSpec struct {
	Name    string
	Machine string
}

// LinkSpec declares one bidirectional point-to-point fabric link between
// two nodes. BW is bytes/second; Lat is the per-traversal wire latency in
// seconds. Each unordered node pair may be declared at most once.
type LinkSpec struct {
	A, B string
	Name string
	BW   float64
	Lat  float64
}

// SwitchSpec declares a central fabric switch: every node gets an uplink
// of the given port bandwidth to one switch vertex, so concurrent
// cross-node transfers contend on the shared uplinks under the
// water-filling solver (incast congests the receiver's uplink, exactly as
// on a real top-of-rack switch). Lat is the per-hop latency, charged once
// per uplink traversal.
type SwitchSpec struct {
	Name string
	BW   float64
	Lat  float64
}

// ClusterConfig is the declarative form of a cluster, as parsed from a
// .cluster file (ParseCluster) or assembled directly in tests.
type ClusterConfig struct {
	Name   string
	Nodes  []NodeSpec
	Links  []LinkSpec
	Switch *SwitchSpec
}

// ClusterNode is one compiled node: its slice of the composite machine.
// Cores, domains, and boards are packed node-major, so node i's cores are
// the contiguous range [FirstCore, FirstCore+NCores).
type ClusterNode struct {
	Name        string
	Index       int
	MachineName string
	FirstCore   int
	NCores      int
	FirstDomain int
	NDomains    int
	// FirstLink/NLinks is this node's contiguous slice of Global.Links:
	// its interconnect edges, memory buses, cache ports, and core engine
	// links, in replication order. Fabric links (switch uplinks and
	// point-to-point links) come after every node's range.
	FirstLink int
	NLinks    int
	// FirstGroup/NGroups is the node's contiguous slice of Global.Groups
	// (cache groups), used to scope cache-coherence scans per node.
	FirstGroup int
	NGroups    int
	// Gateway is the composite-machine vertex where this node attaches to
	// the fabric (the node's first memory domain vertex).
	Gateway int
}

// Cluster is a validated, immutable compiled cluster topology.
type Cluster struct {
	Name   string
	Config ClusterConfig
	Nodes  []*ClusterNode
	// Global is the composite machine spanning every node plus the fabric;
	// it runs through memsim/mpi like any single machine.
	Global *Machine
	// SwitchVertex is the switch's vertex in Global, or -1 without one.
	SwitchVertex int

	nodeOfCore []int
}

// NNodes returns the number of nodes.
func (c *Cluster) NNodes() int { return len(c.Nodes) }

// NodeOfCore returns the index of the node owning the given global core.
func (c *Cluster) NodeOfCore(core int) int { return c.nodeOfCore[core] }

// MachineResolver resolves a NodeSpec.Machine reference to a machine
// model. CompileCluster uses LoadMachine (built-in names, then files) when
// given nil; tests inject synthetic machines.
type MachineResolver func(ref string) (*Machine, error)

// CompileCluster validates a cluster configuration and compiles it into an
// immutable Cluster with one composite Machine. Validation failures return
// one-line errors naming the offending node or link.
//
// Constraints enforced here: at least one node; unique node names; every
// machine reference resolvable; identical scalar Specs across nodes (the
// composite machine carries a single Spec); positive link bandwidths;
// non-negative latencies; link endpoints that exist and differ; each node
// pair linked at most once; and a fabric (links plus switch) that reaches
// every node.
func CompileCluster(cfg ClusterConfig, resolve MachineResolver) (*Cluster, error) {
	if resolve == nil {
		resolve = LoadMachine
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: missing name")
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster %s: no nodes", cfg.Name)
	}
	index := make(map[string]int, len(cfg.Nodes))
	machines := make([]*Machine, len(cfg.Nodes))
	resolved := make(map[string]*Machine) // each reference resolves once
	for i, ns := range cfg.Nodes {
		if _, dup := index[ns.Name]; dup {
			return nil, fmt.Errorf("cluster %s: duplicate node %q", cfg.Name, ns.Name)
		}
		index[ns.Name] = i
		m := resolved[ns.Machine]
		if m == nil {
			var err error
			if m, err = resolve(ns.Machine); err != nil {
				return nil, fmt.Errorf("cluster %s: node %q: machine %q: %v", cfg.Name, ns.Name, ns.Machine, err)
			}
			resolved[ns.Machine] = m
		}
		machines[i] = m
		if m.Spec != machines[0].Spec {
			return nil, fmt.Errorf("cluster %s: node %q machine spec differs from node %q (all nodes must share one scalar spec)",
				cfg.Name, ns.Name, cfg.Nodes[0].Name)
		}
	}

	type pair [2]int
	linked := make(map[pair]bool, len(cfg.Links))
	for _, l := range cfg.Links {
		a, ok := index[l.A]
		if !ok {
			return nil, fmt.Errorf("cluster %s: link %q references unknown node %q", cfg.Name, l.Name, l.A)
		}
		b, ok := index[l.B]
		if !ok {
			return nil, fmt.Errorf("cluster %s: link %q references unknown node %q", cfg.Name, l.Name, l.B)
		}
		if a == b {
			return nil, fmt.Errorf("cluster %s: link %q connects node %q to itself", cfg.Name, l.Name, l.A)
		}
		if l.BW <= 0 {
			return nil, fmt.Errorf("cluster %s: link %q: non-positive bandwidth", cfg.Name, l.Name)
		}
		if l.Lat < 0 {
			return nil, fmt.Errorf("cluster %s: link %q: negative latency", cfg.Name, l.Name)
		}
		p := pair{min(a, b), max(a, b)}
		if linked[p] {
			return nil, fmt.Errorf("cluster %s: duplicate link %s-%s (fabric links are bidirectional; declare each pair once)",
				cfg.Name, cfg.Nodes[p[0]].Name, cfg.Nodes[p[1]].Name)
		}
		linked[p] = true
	}
	if sw := cfg.Switch; sw != nil {
		if sw.BW <= 0 {
			return nil, fmt.Errorf("cluster %s: switch %q: non-positive bandwidth", cfg.Name, sw.Name)
		}
		if sw.Lat < 0 {
			return nil, fmt.Errorf("cluster %s: switch %q: negative latency", cfg.Name, sw.Name)
		}
	}

	// The fabric must reach every node before the composite is routed (an
	// unreachable vertex would panic deep in routeAll).
	if cfg.Switch == nil {
		reach := make([]bool, len(cfg.Nodes))
		reach[0] = true
		queue := []int{0}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for p := range linked {
				for _, v := range []int{p[0], p[1]} {
					if (p[0] == u || p[1] == u) && !reach[v] {
						reach[v] = true
						queue = append(queue, v)
					}
				}
			}
		}
		for i, ok := range reach {
			if !ok {
				return nil, fmt.Errorf("cluster %s: node %q unreachable over the fabric", cfg.Name, cfg.Nodes[i].Name)
			}
		}
	}

	// Replicate every node machine into one composite builder: vertices,
	// interconnect links (node-prefixed names), domains (boards offset per
	// node so Boards() stays meaningful), cache groups, cores. Each
	// distinct node machine is also replicated once on its own and routed
	// as the template every route inside and between its nodes is composed
	// from (routes.go).
	b := NewBuilder("cluster:"+cfg.Name, machines[0].Spec)
	cl := &Cluster{Name: cfg.Name, Config: cfg, SwitchVertex: -1}
	cr := &clusterRoutes{}
	templates := make(map[*Machine]*Machine)
	gw := make([]int, len(cfg.Nodes))
	boardBase := 0
	nCores, nDomains := 0, 0
	for i, ns := range cfg.Nodes {
		m := machines[i]
		tmpl := templates[m]
		if tmpl == nil {
			tb := NewBuilder(m.Name, m.Spec)
			replicate(tb, m, "", 0)
			tmpl = tb.Build()
			templates[m] = tmpl
		}
		firstLink, firstGroup := len(b.m.Links), len(b.m.Groups)
		firstVert := replicate(b, m, ns.Name+"/", boardBase)
		for range m.NCores() {
			cl.nodeOfCore = append(cl.nodeOfCore, i)
		}
		gw[i] = firstVert + m.Domains[0].Vertex
		cr.nodes = append(cr.nodes, nodeRoutes{tmpl: tmpl, firstVert: firstVert, firstLink: firstLink, gw: m.Domains[0].Vertex})
		cl.Nodes = append(cl.Nodes, &ClusterNode{
			Name:        ns.Name,
			Index:       i,
			MachineName: m.Name,
			FirstCore:   nCores,
			NCores:      m.NCores(),
			FirstDomain: nDomains,
			NDomains:    len(m.Domains),
			FirstLink:   firstLink,
			NLinks:      len(b.m.Links) - firstLink,
			FirstGroup:  firstGroup,
			NGroups:     len(b.m.Groups) - firstGroup,
			Gateway:     gw[i],
		})
		boardBase += m.Boards()
		nCores += m.NCores()
		nDomains += len(m.Domains)
	}
	if sw := cfg.Switch; sw != nil {
		sv := b.Vertex("switch/" + sw.Name)
		cl.SwitchVertex = sv
		for i, ns := range cfg.Nodes {
			b.ConnectLat(gw[i], sv, sw.Name+"/"+ns.Name, sw.BW, sw.Lat)
		}
	}
	for _, l := range cfg.Links {
		b.ConnectLat(gw[index[l.A]], gw[index[l.B]], "fabric/"+l.Name, l.BW, l.Lat)
	}
	cl.Global = b.finish()
	cr.index(cl.Global, cl.SwitchVertex)
	cl.Global.cr = cr
	return cl, nil
}

// replicate adds machine m's vertices, interconnect edges (in Edges()
// order), domains (boards offset by boardBase), cache groups and cores to
// b, naming vertices and edges under prefix, and returns the vertex m's
// vertex 0 became. Template and composite both come from here, so their
// links, vertices and adjacency orders line up index for index.
func replicate(b *Builder, m *Machine, prefix string, boardBase int) int {
	firstVert := b.m.nVerts
	for v := range m.NVerts() {
		b.Vertex(fmt.Sprintf("%sv%d", prefix, v))
	}
	for _, e := range m.Edges() {
		b.ConnectLat(firstVert+e.U, firstVert+e.V, prefix+e.Link.Name, e.Link.BW, e.Link.Lat)
	}
	doms := make([]*MemDomain, len(m.Domains))
	for di, d := range m.Domains {
		doms[di] = b.DomainOnBoard(firstVert+d.Vertex, d.Bus.BW, boardBase+d.Board)
	}
	grps := make([]*CacheGroup, len(m.Groups))
	for gi, g := range m.Groups {
		grps[gi] = b.Group(firstVert+g.Vertex, g.Size, g.Port.BW)
	}
	for _, c := range m.Cores {
		var g *CacheGroup
		if c.Group != nil {
			g = grps[c.Group.ID]
		}
		b.Core(firstVert+c.Vertex, doms[c.Domain.ID], g)
	}
	return firstVert
}
