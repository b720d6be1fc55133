package bench

import (
	"context"
	"math"
	"testing"

	"repro/internal/topology"
)

// The simulator is bit-for-bit deterministic, so a handful of exact pinned
// values catch unintended model drift (an accidental change to a bandwidth
// constant, a protocol cost, routing, or the cache model shows up here
// immediately). When a change is intentional, regenerate the values:
//
//	go test ./internal/bench -run TestGolden -v   # prints got values on failure
func TestGoldenValues(t *testing.T) {
	// counts pins a cluster cell's counters next to its seconds.
	type counts struct{ copies, bytes, regs, ctrl int64 }
	golden := []struct {
		machine string // a machine name, or a key of clusters below
		comp    string
		op      Op
		size    int64
		want    float64
		counts  *counts // nil for single machines
	}{
		{"Zoot", "Tuned-SM", OpBcast, 1048576, 7.806022928e-03, nil},
		{"Zoot", "KNEM-Coll", OpBcast, 1048576, 4.927240000e-03, nil},
		{"Dancer", "MPICH2-KNEM", OpGather, 262144, 4.991823333e-04, nil},
		{"Saturn", "Tuned-KNEM", OpAllgather, 65536, 1.132385067e-03, nil},
		{"IG", "KNEM-Coll", OpAlltoallv, 131072, 1.036342914e-02, nil},
		{"IG", "MPICH2-SM", OpScatter, 524288, 1.045690320e-02, nil},
		{"synth3", "Hier-Tree", OpBarrier, 0, 9.200000000e-06, &counts{0, 0, 0, 288}},
		{"synth3", "Hier-Tree", OpBcast, 16384, 5.148328889e-05, &counts{50, 819200, 6, 292}},
		{"synth3", "Hier-Tree", OpBcast, 65536, 1.630331556e-04, &counts{50, 3276800, 6, 292}},
		{"cluster4", "Hier-Tree", OpBcast, 65536, 2.429255111e-04, &counts{68, 4456448, 8, 392}},
	}
	comps := map[string]Comp{
		"Tuned-SM":    TunedSM(),
		"Tuned-KNEM":  TunedKNEM(),
		"MPICH2-SM":   MPICH2SM(),
		"MPICH2-KNEM": MPICH2KNEM(),
		"KNEM-Coll":   KNEMColl(),
	}
	cluster4, err := topology.LoadCluster("../../machines/cluster4.cluster")
	if err != nil {
		t.Fatal(err)
	}
	clusters := map[string]*topology.Cluster{
		"synth3":   syntheticCluster(t, 3),
		"cluster4": cluster4,
	}
	for _, g := range golden {
		cfg := Config{Op: g.op, Size: g.size, Iters: 1, OffCache: true}
		if cl := clusters[g.machine]; cl != nil {
			cfg.Machine, cfg.Comp = cl.Global, Hier(cl)
		} else {
			cfg.Machine, cfg.Comp = topology.ByName(g.machine), comps[g.comp]
		}
		if cfg.Comp.Name != g.comp {
			t.Fatalf("%s: component %q, row names %q", g.machine, cfg.Comp.Name, g.comp)
		}
		res := Default.MustMeasure(cfg)
		if math.Abs(res.Seconds-g.want) > 1e-9*g.want {
			t.Errorf("%s/%s/%s/%d = %.9e, golden %.9e — model drift (regenerate if intentional)",
				g.machine, g.comp, g.op, g.size, res.Seconds, g.want)
		}
		if g.counts == nil {
			continue
		}
		st := res.Stats
		if got := (counts{st.Copies, st.BytesCopied, st.Registrations, st.CtrlMsgs}); got != *g.counts {
			t.Errorf("%s/%s/%s/%d counters (copies, bytes, registrations, ctrl msgs) = %v, golden %v",
				g.machine, g.comp, g.op, g.size, got, *g.counts)
		}
	}
}

// syntheticCluster compiles a cluster of `nodes` synthetic 8-core machines
// behind one switch.
func syntheticCluster(t testing.TB, nodes int) *topology.Cluster {
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

// TestMeasureForcedRejectsParallel pins MeasureForced's contract: the
// serial measure matches Measure, and asking for intra-cell parallel
// execution is a one-line error.
func TestMeasureForcedRejectsParallel(t *testing.T) {
	cl := syntheticCluster(t, 2)
	cfg := Config{Machine: cl.Global, Comp: Hier(cl), Op: OpBcast, Size: 16 * KiB, Iters: 1, OffCache: true}
	serial, err := Default.MeasureForced(context.Background(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := Default.MustMeasure(cfg); serial.Seconds != want.Seconds || serial.Stats.Copies != want.Stats.Copies {
		t.Errorf("MeasureForced(false) = %.12g (%d copies), Measure = %.12g (%d copies)",
			serial.Seconds, serial.Stats.Copies, want.Seconds, want.Stats.Copies)
	}
	_, err = Default.MeasureForced(context.Background(), cfg, true)
	if err == nil || err.Error() != "bench: intra-cell parallel execution is not supported" {
		t.Fatalf("MeasureForced(true) error = %v, want the one-line rejection", err)
	}
}

// Determinism: the same configuration measured twice gives the identical
// simulated time.
func TestMeasurementDeterminism(t *testing.T) {
	cfg := Config{
		Machine: topology.IG(), Comp: KNEMColl(), Op: OpBcast,
		Size: 1 << 20, Iters: 2, OffCache: true,
	}
	a := Default.MustMeasure(cfg)
	b := Default.MustMeasure(cfg)
	if a.Seconds != b.Seconds {
		t.Fatalf("nondeterministic: %.12e vs %.12e", a.Seconds, b.Seconds)
	}
}
