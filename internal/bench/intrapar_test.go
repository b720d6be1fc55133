package bench

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/coll/hier"
	"repro/internal/fault"
	"repro/internal/topology"
	"repro/internal/tune"
)

// testCluster compiles a cluster of `nodes` synthetic 8-core machines
// behind one switch, small enough that a serial/parallel pair of runs
// stays in test budget.
func testCluster(t testing.TB, nodes int) *topology.Cluster {
	t.Helper()
	box := topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 2, CoresPerSocket: 4,
		BusBW: 16e9, LinkBW: 11e9,
		CacheSize: 8 << 20, CachePortBW: 30e9,
		Spec: topology.Dancer().Spec,
	})
	cfg := topology.ClusterConfig{
		Name:   "bpar",
		Switch: &topology.SwitchSpec{Name: "tor", BW: 1.25e9, Lat: 2e-6},
	}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, topology.NodeSpec{Name: string(rune('a' + i)), Machine: "box"})
	}
	cl, err := topology.CompileCluster(cfg, func(string) (*topology.Machine, error) { return box, nil })
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func clusterCell(cl *topology.Cluster, op Op, size int64) Config {
	return Config{
		Machine: cl.Global, Comp: Hier(cl), Op: op, Size: size,
		Iters: 2, OffCache: true,
	}
}

// TestIntraParallelBitIdentical pins the tentpole contract: an eligible
// cluster cell run across the partitioned engine group is byte-identical
// to the single-engine run — same Seconds, same counters — on a fresh
// engine group and again on a reused one, and under concurrent cells
// (subtests run parallel, so groups from the shard pool interleave; the
// race detector covers the cross-engine plumbing in -race CI runs).
func TestIntraParallelBitIdentical(t *testing.T) {
	DisableCache()
	cl := testCluster(t, 3)
	cells := []struct {
		name string
		op   Op
		size int64
	}{
		{"barrier", OpBarrier, 0},
		{"bcast16k", OpBcast, 16 * KiB},
		{"bcast64k", OpBcast, 64 * KiB},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := clusterCell(cl, c.op, c.size)
			serial, err := MeasureForced(context.Background(), cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []string{"fresh group", "reused group"} {
				par, err := MeasureForced(context.Background(), cfg, true)
				if err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				if par.Seconds != serial.Seconds {
					t.Errorf("%s: parallel Seconds = %.12g, serial %.12g", pass, par.Seconds, serial.Seconds)
				}
				if !reflect.DeepEqual(par.Stats, serial.Stats) {
					t.Errorf("%s: stats diverge:\nparallel: %s\nserial:   %s", pass, par.Stats.String(), serial.Stats.String())
				}
			}
		})
	}
}

// TestIntraParallelDispatch checks that the default Measure path takes the
// parallel route for an eligible cell (visible through the engine-group
// lease counter) and that the result still matches the serial run.
func TestIntraParallelDispatch(t *testing.T) {
	DisableCache()
	cl := testCluster(t, 2)
	cfg := clusterCell(cl, OpBcast, 32*KiB)
	serial, err := MeasureForced(context.Background(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	before := EngineGroups()
	res, err := Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := EngineGroups()
	if after.Leases <= before.Leases {
		t.Errorf("Measure did not lease an engine group (leases %d -> %d)", before.Leases, after.Leases)
	}
	if after.Windows <= before.Windows {
		t.Errorf("no conservative windows recorded (windows %d -> %d)", before.Windows, after.Windows)
	}
	if res.Seconds != serial.Seconds || !reflect.DeepEqual(res.Stats, serial.Stats) {
		t.Errorf("dispatched parallel run diverges from serial:\nparallel: %.12g %s\nserial:   %.12g %s",
			res.Seconds, res.Stats.String(), serial.Seconds, serial.Stats.String())
	}
	if after.AuditFallbacks != before.AuditFallbacks {
		t.Errorf("audit fallbacks recorded on an eligible cell: %d -> %d", before.AuditFallbacks, after.AuditFallbacks)
	}
}

// TestParallelEligibility tables the envelope edges: everything outside it
// must run serially, and a zero-lookahead cluster must be rejected with
// the topology package's one-line error.
func TestParallelEligibility(t *testing.T) {
	cl := testCluster(t, 2)
	base := clusterCell(cl, OpBcast, 32*KiB)
	base.NP = cl.Global.NCores()
	tests := []struct {
		name string
		cfg  func() Config
		dec  *tune.Decider
		want bool
	}{
		{"eligible bcast", func() Config { return base }, nil, true},
		{"eligible barrier", func() Config { return clusterCellNP(cl, OpBarrier, 0) }, nil, true},
		{"single machine", func() Config {
			c := base
			c.Comp = KNEMColl()
			c.Machine = topology.IG()
			c.NP = c.Machine.NCores()
			return c
		}, nil, false},
		{"bcast too small", func() Config { c := base; c.Size = 8 * KiB; return c }, nil, false},
		{"bcast too large", func() Config { c := base; c.Size = 128 * KiB; return c }, nil, false},
		{"nonzero root", func() Config { c := base; c.Root = 1; return c }, nil, false},
		{"partial occupancy", func() Config { c := base; c.NP = c.NP - 1; return c }, nil, false},
		{"fault plan", func() Config {
			c := base
			c.Fault = &fault.Plan{Seed: 1}
			return c
		}, nil, false},
		{"decision source", func() Config { return base }, &tune.Decider{}, false},
		{"non-default hier", func() Config {
			c := base
			c.Comp = HierCfg(cl, hier.Config{Inter: "ring"})
			return c
		}, nil, false},
		{"unsupported op", func() Config { return clusterCellNP(cl, OpAllgather, 4*KiB) }, nil, false},
	}
	for _, tc := range tests {
		if got := parallelEligible(tc.cfg(), tc.dec); got != tc.want {
			t.Errorf("%s: parallelEligible = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func clusterCellNP(cl *topology.Cluster, op Op, size int64) Config {
	c := clusterCell(cl, op, size)
	c.NP = cl.Global.NCores()
	return c
}

// TestSingleNodeFallsBackSerial pins the degenerate shapes: a single-node
// cluster has no fabric to overlap with, so it is ineligible and Measure
// serves it serially; forcing parallel on it is an explicit error.
func TestSingleNodeFallsBackSerial(t *testing.T) {
	DisableCache()
	cl := testCluster(t, 1)
	cfg := clusterCellNP(cl, OpBcast, 32*KiB)
	if parallelEligible(cfg, nil) {
		t.Fatal("single-node cluster reported eligible for intra-cell parallelism")
	}
	if _, err := Measure(cfg); err != nil {
		t.Fatalf("serial fallback failed: %v", err)
	}
	if _, err := MeasureForced(context.Background(), cfg, true); err == nil ||
		!strings.Contains(err.Error(), "outside the intra-cell parallel envelope") {
		t.Fatalf("forced parallel on ineligible cell: err = %v, want envelope error", err)
	}
}

// TestZeroLookaheadRejected pins the other edge: a cluster whose machines
// model zero control latency admits no conservative window, and
// Cluster.Lookahead says so in one line.
func TestZeroLookaheadRejected(t *testing.T) {
	spec := topology.Dancer().Spec
	spec.CtrlLatency = 0
	box := topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 1, CoresPerSocket: 2,
		BusBW: 16e9, LinkBW: 11e9,
		CacheSize: 8 << 20, CachePortBW: 30e9,
		Spec: spec,
	})
	cl, err := topology.CompileCluster(topology.ClusterConfig{
		Name:   "zero",
		Nodes:  []topology.NodeSpec{{Name: "a", Machine: "box"}, {Name: "b", Machine: "box"}},
		Switch: &topology.SwitchSpec{Name: "tor", BW: 1e9, Lat: 1e-6},
	}, func(string) (*topology.Machine, error) { return box, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Lookahead(); err == nil || !strings.Contains(err.Error(), "zero ctrl latency") {
		t.Fatalf("Lookahead error = %v, want zero-ctrl-latency rejection", err)
	}
	if parallelEligible(clusterCellNP(cl, OpBarrier, 0), nil) {
		t.Fatal("zero-lookahead cluster reported eligible")
	}
}

// TestIntraParallelRepeatedUnderRace runs partitioned cluster cells
// several times with at least two OS threads, so the engines of each
// window really execute concurrently, and checks every run against the
// serial one bit for bit. The shape — 16-core nodes behind a fast switch —
// lets one node's leader create or destroy a KNEM region on the fabric
// engine in the same window as another node's members resolve theirs, so
// under -race it proves the node-linked region table is guarded.
func TestIntraParallelRepeatedUnderRace(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	DisableCache()
	box := topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 8, CoresPerSocket: 2,
		BusBW: 35e9, LinkBW: 18e9,
		CacheSize: 8 << 20, CachePortBW: 60e9,
		Spec: topology.Dancer().Spec,
	})
	ccfg := topology.ClusterConfig{
		Name:   "race",
		Switch: &topology.SwitchSpec{Name: "tor", BW: 12e9, Lat: 2e-6},
	}
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		ccfg.Nodes = append(ccfg.Nodes, topology.NodeSpec{Name: name, Machine: "box"})
	}
	cl, err := topology.CompileCluster(ccfg, func(string) (*topology.Machine, error) { return box, nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{16 * KiB, 40 * KiB} {
		cfg := clusterCellNP(cl, OpBcast, size)
		if !parallelEligible(cfg, nil) {
			t.Fatalf("size %d: cell is outside the intra-cell parallel envelope", size)
		}
		serial, err := MeasureForced(context.Background(), cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			par, err := MeasureForced(context.Background(), cfg, true)
			if err != nil {
				t.Fatalf("size %d run %d: %v", size, run, err)
			}
			if par.Seconds != serial.Seconds || !reflect.DeepEqual(par.Stats, serial.Stats) {
				t.Fatalf("size %d run %d diverges from serial:\nparallel: %.17g %s\nserial:   %.17g %s",
					size, run, par.Seconds, par.Stats.String(), serial.Seconds, serial.Stats.String())
			}
		}
	}
}
