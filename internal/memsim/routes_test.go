package memsim

import (
	"slices"
	"testing"

	"repro/internal/allocwin"
	"repro/internal/sim"
	"repro/internal/topology"
)

// lineCluster is three Dancer nodes in a switchless line, so the route
// between the end nodes passes through the middle node's gateway.
func lineCluster(t *testing.T) *topology.Cluster {
	t.Helper()
	cl, err := topology.CompileCluster(topology.ClusterConfig{
		Name: "line",
		Nodes: []topology.NodeSpec{
			{Name: "a", Machine: "Dancer"}, {Name: "b", Machine: "Dancer"}, {Name: "c", Machine: "Dancer"},
		},
		Links: []topology.LinkSpec{
			{A: "a", B: "b", Name: "ab", BW: 3e9, Lat: 1e-6},
			{A: "b", B: "c", Name: "bc", BW: 3e9, Lat: 1e-6},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// The pieces useRoute walks for every core and target, in order, are the
// machine's PathToDomain and PathToGroup.
func TestInternedRoutesMatchMachine(t *testing.T) {
	quad, err := topology.LoadCluster("../../machines/cluster4.cluster")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		m      *topology.Machine
		single bool // routes stay one piece: nothing interned across nodes
	}{
		{topology.IG(), true},
		{quad.Global, false},
		{lineCluster(t).Global, false},
	}
	for _, tc := range cases {
		m := tc.m
		n := New(sim.NewEngine(), m, nil)
		if single := n.routes.up == nil && n.routes.fab == nil && n.routes.down == nil; single != tc.single {
			t.Fatalf("%s: interned cross-node pieces: %v, want %v", m.Name, !single, !tc.single)
		}
		walk := func(v, target int) []*topology.Link {
			n.useEpoch++
			n.useRoute(v, target)
			out := make([]*topology.Link, len(n.useOrder))
			for i, idx := range n.useOrder {
				out[i] = m.Links[idx]
			}
			n.useOrder = n.useOrder[:0]
			return out
		}
		for _, c := range m.Cores {
			for _, d := range m.Domains {
				if got, want := walk(c.Vertex, n.routes.domain(d)), m.PathToDomain(c, d); !slices.Equal(got, want) {
					t.Fatalf("%s: core %d to domain %d walks %d links, want PathToDomain's %d", m.Name, c.ID, d.ID, len(got), len(want))
				}
			}
			for _, g := range m.Groups {
				if got, want := walk(c.Vertex, n.routes.group(g)), m.PathToGroup(c, g); !slices.Equal(got, want) {
					t.Fatalf("%s: core %d to group %d walks %d links, want PathToGroup's %d", m.Name, c.ID, g.ID, len(got), len(want))
				}
			}
		}
	}
}

// A copy whose read and write routes both cross the fabric — three pieces
// a side — allocates nothing once warm, like a copy inside one machine.
// The window is counted with allocwin: a plain MemStats.Mallocs delta
// failed about 1 run in 60 with 5 objects, all of which a heap profile put
// in the runtime starting an OS thread as ReadMemStats restarted the
// world, none in sim or memsim.
func TestCrossNodeCopyAllocationFree(t *testing.T) {
	cl := lineCluster(t)
	m := cl.Global
	e := sim.NewEngine()
	n := New(e, m, nil)
	n.SetClusterIslands(cl)
	a, b, c := cl.Nodes[0], cl.Nodes[1], cl.Nodes[2]
	src := n.Alloc(m.Domains[a.FirstDomain], MB, false)
	dst := n.Alloc(m.Domains[c.FirstDomain+1], MB, false)
	core := m.Cores[b.FirstCore+5]
	var got uint64
	e.Spawn("t", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			n.Copy(p, core, dst.View(0, 64<<10), src.View(0, 64<<10))
		}
		got = allocwin.Count(func() {
			for i := 0; i < 512; i++ {
				n.Copy(p, core, dst.View(0, 64<<10), src.View(0, 64<<10))
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("512 warm cross-node copies allocated %d objects, want 0", got)
	}
}
