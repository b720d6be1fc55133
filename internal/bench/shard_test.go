package bench

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// TestShardReuseBitIdentical pins the sharded runner's contract: repeated
// Measure calls — the later ones running on recycled engine/net shards —
// return bit-identical timings and counters, sequentially and under a
// parallel sweep. The cache is kept off so every cell truly simulates.
func TestShardReuseBitIdentical(t *testing.T) {
	r := NewRunner()
	cfg := Config{
		Machine: topology.IG(),
		Comp:    KNEMColl(),
		Op:      OpBcast,
		Size:    256 * KiB,
		Iters:   1,
	}
	want := r.MustMeasure(cfg)
	for i := 0; i < 3; i++ {
		got := r.MustMeasure(cfg)
		if got.Seconds != want.Seconds {
			t.Fatalf("rerun %d: %.17g s, first run %.17g s", i, got.Seconds, want.Seconds)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("rerun %d: stats diverged:\ngot   %v\nfirst %v", i, got.Stats.String(), want.Stats.String())
		}
	}

	// A parallel sweep mixing machines must agree cell-for-cell with the
	// sequential run (shards are per-worker, never shared between live
	// cells, and reused across machines within a worker).
	cfgs := []Config{
		cfg,
		{Machine: topology.Dancer(), Comp: TunedSM(), Op: OpAllgather, Size: 64 * KiB, Iters: 1},
		{Machine: topology.IG(), Comp: MPICH2KNEM(), Op: OpScatter, Size: 128 * KiB, Iters: 1},
		cfg,
	}
	seq := r.MeasureAll(cfgs)
	r.SetParallel(4)
	par := r.MeasureAll(cfgs)
	for i := range seq {
		if seq[i].Seconds != par[i].Seconds || !reflect.DeepEqual(seq[i].Stats, par[i].Stats) {
			t.Fatalf("cell %d: parallel run diverged from sequential: %.17g vs %.17g",
				i, par[i].Seconds, seq[i].Seconds)
		}
	}
	if seq[0].Seconds != want.Seconds {
		t.Fatalf("sweep cell 0 %.17g s != direct measure %.17g s", seq[0].Seconds, want.Seconds)
	}
}

// TestClusterShardReuseBitIdentical extends the reuse contract to cluster
// cells, whose shards also carry the fabric links and one KNEM module per
// node: every rerun on a recycled shard must match the first run bit for
// bit. The per-cell subtests run in parallel, so under -race they also
// show that concurrent cluster cells share no simulator state.
func TestClusterShardReuseBitIdentical(t *testing.T) {
	r := NewRunner()
	cl := syntheticCluster(t, 3)
	cell := func(op Op, size int64) Config {
		return Config{Machine: cl.Global, Comp: Hier(cl), Op: op, Size: size, Iters: 2, OffCache: true}
	}

	// A parallel sweep mixing cluster and single-machine cells must agree
	// cell-for-cell with the sequential run, so a shard that served a
	// cluster cell is clean for a single machine and the other way round.
	t.Run("mixed-sweep", func(t *testing.T) {
		cfgs := []Config{
			cell(OpBcast, 32*KiB),
			{Machine: topology.IG(), Comp: KNEMColl(), Op: OpBcast, Size: 256 * KiB, Iters: 1},
			cell(OpBarrier, 0),
			{Machine: topology.Dancer(), Comp: TunedKNEM(), Op: OpAllgather, Size: 16 * KiB, Iters: 1},
			cell(OpBcast, 32*KiB),
		}
		seq := r.MeasureAll(cfgs)
		r.SetParallel(2)
		par := r.MeasureAll(cfgs)
		for i := range seq {
			if seq[i].Seconds != par[i].Seconds || !reflect.DeepEqual(seq[i].Stats, par[i].Stats) {
				t.Fatalf("cell %d: parallel run diverged from sequential:\nparallel:   %.17g %s\nsequential: %.17g %s",
					i, par[i].Seconds, par[i].Stats.String(), seq[i].Seconds, seq[i].Stats.String())
			}
		}
		if seq[0].Seconds != seq[4].Seconds || !reflect.DeepEqual(seq[0].Stats, seq[4].Stats) {
			t.Fatalf("repeated cluster cell diverged: %.17g vs %.17g", seq[4].Seconds, seq[0].Seconds)
		}
	})

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
			cfg := cell(c.op, c.size)
			want, err := r.MeasureForced(context.Background(), cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				got, err := r.MeasureForced(context.Background(), cfg, false)
				if err != nil {
					t.Fatalf("rerun %d: %v", i, err)
				}
				if got.Seconds != want.Seconds {
					t.Errorf("rerun %d: %.17g s, first run %.17g s", i, got.Seconds, want.Seconds)
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Errorf("rerun %d: stats diverged:\ngot   %s\nfirst %s", i, got.Stats.String(), want.Stats.String())
				}
			}
		})
	}
}
