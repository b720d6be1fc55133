package topology

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// referenceRoutes is the all-pairs router composite machines used before
// template routes, kept as the reference for one source: a BFS from s over
// the whole composite graph, paths rebuilt from the BFS tree, latencies
// summed in path order.
func referenceRoutes(m *Machine, s int) (paths [][]*Link, hops []int, lats []float64) {
	n := m.nVerts
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
		for _, e := range m.adj[u] {
			if dist[e.to] == -1 {
				dist[e.to] = dist[u] + 1
				prevEdge[e.to] = edge{to: u, link: e.link}
				queue = append(queue, e.to)
			}
		}
	}
	paths = make([][]*Link, n)
	lats = make([]float64, n)
	for t := 0; t < n; t++ {
		if dist[t] < 0 {
			panic(fmt.Sprintf("reference: %s: vertex %d unreachable from %d", m.Name, t, s))
		}
		var rev []*Link
		for v := t; v != s; v = prevEdge[v].to {
			rev = append(rev, prevEdge[v].link)
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		paths[t] = rev
		var sum float64
		for _, l := range rev {
			sum += l.Lat
		}
		lats[t] = sum
	}
	return paths, dist, lats
}

// routeChecker compares a composite machine's composed routes with the
// reference, one source vertex at a time.
type routeChecker struct {
	t *testing.T
	m *Machine
	// coresAt lists the cores on each vertex.
	coresAt [][]*Core
	errs    int
}

func newRouteChecker(t *testing.T, m *Machine) *routeChecker {
	if m.paths != nil || m.hops != nil || m.lats != nil || m.cr == nil {
		t.Fatalf("%s: composite machine should hold template routes and no all-pairs tables", m.Name)
	}
	rc := &routeChecker{t: t, m: m, coresAt: make([][]*Core, m.nVerts)}
	for _, c := range m.Cores {
		rc.coresAt[c.Vertex] = append(rc.coresAt[c.Vertex], c)
	}
	return rc
}

func (rc *routeChecker) fail(format string, args ...any) {
	rc.t.Helper()
	if rc.errs++; rc.errs <= 10 {
		rc.t.Errorf(format, args...)
	}
}

// source checks the routes from s: to every target vertex of targets (all
// vertices when nil), and from one core on s to every domain and cache
// group. Routes depend only on the vertex, so one core per vertex covers
// every core there.
func (rc *routeChecker) source(s int, targets []int) {
	rc.t.Helper()
	m := rc.m
	ref, hops, lats := referenceRoutes(m, s)
	check := func(v int) {
		if got := m.VertexPath(s, v); !slices.Equal(got, ref[v]) {
			rc.fail("%s: VertexPath(%d, %d) = %s, want %s", m.Name, s, v, linkNames(got), linkNames(ref[v]))
		}
		if got := m.Hops(s, v); got != hops[v] {
			rc.fail("%s: Hops(%d, %d) = %d, want %d", m.Name, s, v, got, hops[v])
		}
		if got := m.PathLatency(s, v); math.Float64bits(got) != math.Float64bits(lats[v]) {
			rc.fail("%s: PathLatency(%d, %d) = %v, want %v", m.Name, s, v, got, lats[v])
		}
	}
	if targets == nil {
		for v := range m.nVerts {
			check(v)
		}
	} else {
		for _, v := range targets {
			check(v)
		}
	}
	if len(rc.coresAt[s]) == 0 {
		return
	}
	c := rc.coresAt[s][0]
	for _, d := range m.Domains {
		if got, want := m.PathToDomain(c, d), append(slices.Clone(ref[d.Vertex]), d.Bus); !slices.Equal(got, want) {
			rc.fail("%s: PathToDomain(core %d, domain %d) = %s, want %s", m.Name, c.ID, d.ID, linkNames(got), linkNames(want))
		}
	}
	for _, g := range m.Groups {
		if got, want := m.PathToGroup(c, g), append(slices.Clone(ref[g.Vertex]), g.Port); !slices.Equal(got, want) {
			rc.fail("%s: PathToGroup(core %d, group %d) = %s, want %s", m.Name, c.ID, g.ID, linkNames(got), linkNames(want))
		}
	}
}

func linkNames(p []*Link) string {
	names := make([]string, len(p))
	for i, l := range p {
		names[i] = l.Name
	}
	return "[" + strings.Join(names, " ") + "]"
}

// latencyBox is a node machine whose own interconnect links carry latency,
// in amounts whose float sums depend on the order they are added in.
func latencyBox() *Machine {
	b := NewBuilder("latbox", Dancer().Spec)
	v := []int{b.Vertex("a"), b.Vertex("b"), b.Vertex("c")}
	b.ConnectLat(v[0], v[1], "ab", 10e9, 0.1e-6)
	b.ConnectLat(v[1], v[2], "bc", 10e9, 0.2e-6)
	b.ConnectLat(v[2], v[0], "ca", 10e9, 0.3e-6)
	for _, x := range v {
		d := b.Domain(x, 16e9)
		g := b.Group(x, 8<<20, 30e9)
		b.Core(x, d, g)
		b.Core(x, d, g)
	}
	return b.Build()
}

// syntheticPair returns two different node shapes with equal Specs.
func syntheticPair() (a, b *Machine) {
	spec := func(boards, sockets int) SyntheticSpec {
		return SyntheticSpec{
			Boards: boards, SocketsPerBoard: sockets, CoresPerSocket: 2,
			BusBW: 20e9, LinkBW: 12e9, BoardLinkBW: 6e9, CacheSize: 8 << 20, CachePortBW: 30e9,
			Spec: Dancer().Spec,
		}
	}
	return Synthetic(spec(2, 3)), Synthetic(spec(1, 4))
}

// TestTemplateRoutesMatchAllPairs holds every composed route to the
// all-pairs BFS over the composite graph: link for link, hop for hop and
// latency bit for bit, on clusters that exercise each way routes compose.
func TestTemplateRoutesMatchAllPairs(t *testing.T) {
	nodes := func(machines ...string) []NodeSpec {
		ns := make([]NodeSpec, len(machines))
		for i, m := range machines {
			ns[i] = NodeSpec{Name: fmt.Sprintf("n%d", i), Machine: m}
		}
		return ns
	}
	synA, synB := syntheticPair()
	resolve := func(ref string) (*Machine, error) {
		switch ref {
		case "synA":
			return synA, nil
		case "synB":
			return synB, nil
		case "latbox":
			return latencyBox(), nil
		}
		return builtinResolver(ref)
	}
	cases := []struct {
		name string
		cfg  ClusterConfig
	}{
		{"ig-trio", ClusterConfig{
			Name:   "igtrio",
			Nodes:  nodes("IG", "IG", "IG"),
			Switch: &SwitchSpec{Name: "sw", BW: 1.25e9, Lat: 2e-6},
		}},
		{"line-of-four", ClusterConfig{
			Name:  "line",
			Nodes: nodes("Dancer", "Dancer", "Dancer", "Dancer"),
			Links: []LinkSpec{
				{A: "n0", B: "n1", Name: "l01", BW: 3e9, Lat: 0.7e-6},
				{A: "n1", B: "n2", Name: "l12", BW: 3e9, Lat: 1.1e-6},
				{A: "n2", B: "n3", Name: "l23", BW: 3e9, Lat: 1.3e-6},
			},
		}},
		{"ring-of-four", ClusterConfig{
			Name:  "ring",
			Nodes: nodes("Dancer", "Dancer", "Dancer", "Dancer"),
			Links: []LinkSpec{
				{A: "n0", B: "n1", Name: "l01", BW: 3e9, Lat: 0.7e-6},
				{A: "n1", B: "n2", Name: "l12", BW: 3e9, Lat: 1.1e-6},
				{A: "n2", B: "n3", Name: "l23", BW: 3e9, Lat: 1.3e-6},
				{A: "n3", B: "n0", Name: "l30", BW: 3e9, Lat: 0.3e-6},
			},
		}},
		// n0 reaches n2 in two fabric hops through the switch or through
		// n1: a tie the fabric's neighbour order decides.
		{"two-synthetic-shapes", ClusterConfig{
			Name:  "mixed",
			Nodes: nodes("synA", "synB", "synA", "synB"),
			Links: []LinkSpec{
				{A: "n3", B: "n0", Name: "short", BW: 3e9, Lat: 0.5e-6},
				{A: "n0", B: "n1", Name: "x", BW: 3e9, Lat: 0.1e-6},
				{A: "n1", B: "n2", Name: "y", BW: 3e9, Lat: 0.2e-6},
			},
			Switch: &SwitchSpec{Name: "sw", BW: 1.25e9, Lat: 0.3e-6},
		}},
		{"node-latency", ClusterConfig{
			Name:  "latring",
			Nodes: nodes("latbox", "latbox", "latbox"),
			Links: []LinkSpec{
				{A: "n0", B: "n1", Name: "x", BW: 3e9, Lat: 0.1e-6},
				{A: "n1", B: "n2", Name: "y", BW: 3e9, Lat: 0.2e-6},
			},
		}},
		{"solo", ClusterConfig{Name: "solo", Nodes: nodes("Saturn")}},
	}
	file, err := LoadCluster("../../machines/cluster4.cluster")
	if err != nil {
		t.Fatal(err)
	}
	clusters := map[string]*Cluster{"cluster4": file}
	names := []string{"cluster4"}
	for _, tc := range cases {
		cl, err := CompileCluster(tc.cfg, resolve)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		clusters[tc.name] = cl
		names = append(names, tc.name)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			rc := newRouteChecker(t, clusters[name].Global)
			for s := range rc.m.nVerts {
				rc.source(s, nil)
			}
		})
	}

	// The trap the templates avoid: a replica declares its edges in
	// Edges() order, which changes IG's BFS tie-breaks, so routing the
	// source machine would pick different links on some local routes.
	ig, g := IG(), clusters["ig-trio"].Global
	differ := 0
	for u := range ig.NVerts() {
		for v := range ig.NVerts() {
			local := strings.ReplaceAll(linkNames(g.VertexPath(u, v)), "n0/", "")
			if local != linkNames(ig.VertexPath(u, v)) {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Error("no IG local route differs from IG().VertexPath; the ig-trio case no longer covers the replica-order trap")
	}
	t.Logf("%d of %d IG local routes differ from the source machine's", differ, ig.NVerts()*ig.NVerts())
}

// TestTemplateRoutesMatchAllPairs10k checks the 80-node, 128-core shape
// perfbench runs: every core vertex against every domain and cache group,
// plus a seeded sample of vertex pairs, the switch included.
func TestTemplateRoutesMatchAllPairs10k(t *testing.T) {
	box := Synthetic(SyntheticSpec{
		Boards: 1, SocketsPerBoard: 16, CoresPerSocket: 8,
		BusBW: 35e9, LinkBW: 18e9, CacheSize: 32 << 20, CachePortBW: 60e9,
		Spec: ManyCore(128).Spec,
	})
	cfg := ClusterConfig{Name: "tenk", Switch: &SwitchSpec{Name: "tor", BW: 12e9, Lat: 2e-6}}
	for i := range 80 {
		cfg.Nodes = append(cfg.Nodes, NodeSpec{Name: fmt.Sprintf("n%d", i), Machine: "box"})
	}
	cl, err := CompileCluster(cfg, func(string) (*Machine, error) { return box, nil })
	if err != nil {
		t.Fatal(err)
	}
	rc := newRouteChecker(t, cl.Global)
	rng := rand.New(rand.NewPCG(18, 10240))
	nv := rc.m.nVerts
	for s := range nv {
		if len(rc.coresAt[s]) == 0 && s != cl.SwitchVertex {
			t.Fatalf("vertex %d has no core", s)
		}
		targets := []int{cl.SwitchVertex}
		for range 4 {
			targets = append(targets, rng.IntN(nv))
		}
		rc.source(s, targets)
	}
}

// ScatterMapping on a machine whose domains hold different core counts:
// once the small domain runs dry, the remaining ranks fill the unused
// cores in ID order.
func TestScatterMappingUneven(t *testing.T) {
	b := NewBuilder("uneven", Dancer().Spec)
	for i, n := range []int{1, 3, 2} {
		v := b.Vertex("numa")
		if i > 0 {
			b.Connect(0, v, "qpi", 11e9)
		}
		d := b.Domain(v, 16e9)
		g := b.Group(v, 8<<20, 30e9)
		for range n {
			b.Core(v, d, g)
		}
	}
	m := b.Build() // cores 0 | 1 2 3 | 4 5
	cases := []struct {
		np   int
		want []int
	}{
		{1, []int{0}},
		{3, []int{0, 1, 4}},
		{4, []int{0, 1, 4, 2}},
		{5, []int{0, 1, 4, 2, 3}},
		{6, []int{0, 1, 4, 2, 3, 5}},
	}
	for _, tc := range cases {
		if got := m.ScatterMapping(tc.np); !slices.Equal(got, tc.want) {
			t.Errorf("ScatterMapping(%d) = %v, want %v", tc.np, got, tc.want)
		}
	}
}
