package bench

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/tune"
)

// TestCellKeyPinned pins Runner.CellKey's exact strings, and one Table I
// key, to the bytes on-disk memo entries were written under: a cache
// directory filled by an older build must keep replaying as hits. Changing
// any of them is a deliberate cacheSchema or simFingerprint bump.
func TestCellKeyPinned(t *testing.T) {
	ig := topology.IG()
	tb, err := tune.Load("../../machines/ig.tune.json", ig)
	if err != nil {
		t.Fatal(err)
	}
	dec := tune.NewDecider(tb)
	if got, want := dec.ContentHash(), tb.ContentHash(); got != want {
		t.Fatalf("Decider.ContentHash() = %s, want Table().ContentHash() = %s", got, want)
	}
	cluster4, err := topology.LoadCluster("../../machines/cluster4.cluster")
	if err != nil {
		t.Fatal(err)
	}

	type testcase struct {
		cfg  Config
		want string
	}
	run := func(t *testing.T, tc testcase) {
		got, ok := NewRunner().CellKey(tc.cfg)
		if !ok {
			t.Fatal("cell refused a key")
		}
		if got != tc.want {
			t.Fatalf("key mismatch:\n got %s\nwant %s", got, tc.want)
		}
	}
	cases := map[string]testcase{
		"zoot knem-coll bcast": {
			cfg:  Config{Machine: topology.Zoot(), Comp: KNEMColl(), Op: OpBcast, Size: 1 << 20},
			want: "simcache/v1|sim/g3-partition|m=bd4c68679560dddd|comp=KNEM-Coll|thr=0|mode=0|segi=0|segl=0|lmin=0|fseg=0|nopipe=false|dma=0|ring=false|lazy=false|btl=0|knemmin=0|op=bcast|size=1048576|np=16|iters=3|oc=false|root=0|dec=none",
		},
		"ig tuned-sm gather root 11 off-cache": {
			cfg:  Config{Machine: ig, Comp: TunedSM(), Op: OpGather, Size: 64 << 10, Root: 11, OffCache: true},
			want: "simcache/v1|sim/g3-partition|m=ea76f690002c8fd7|comp=Tuned-SM|bbin=0|btree=0|tseg=0|cseg=0|gbin=0|agrd=0|a2alin=0|fan=0|seg=0|btl=0|knemmin=0|op=gather|size=65536|np=48|iters=3|oc=true|root=11|dec=none",
		},
		"ig tuned decisions": {
			cfg:  Config{Machine: ig, Comp: KNEMColl(), Op: OpAlltoall, Size: 256 << 10, Iters: 2, Decider: dec},
			want: "simcache/v1|sim/g3-partition|m=ea76f690002c8fd7|comp=KNEM-Coll|thr=0|mode=0|segi=0|segl=0|lmin=0|fseg=0|nopipe=false|dma=0|ring=false|lazy=false|btl=0|knemmin=0|op=alltoall|size=262144|np=48|iters=2|oc=false|root=0|dec=7187ed48d5bc33bc",
		},
		"cluster4 hier-tree bcast": {
			cfg:  Config{Machine: cluster4.Global, Comp: Hier(cluster4), Op: OpBcast, Size: 64 << 10, Iters: 1},
			want: "simcache/v1|sim/g3-partition|m=733b2ea22fc4ee74|comp=Hier|inter=tree|knemmin=16384|interseg=131072|btl=0|knemmin=0|op=bcast|size=65536|np=32|iters=1|oc=false|root=0|dec=none",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) { run(t, tc) })
	}

	t.Run("table1", func(t *testing.T) {
		const want = "simcache/v1|sim/g3-partition|table1|m=bd4c68679560dddd|comp=Tuned-SM|bbin=0|btree=0|tseg=0|cseg=0|gbin=0|agrd=0|a2alin=0|fan=0|seg=0|btl=0|knemmin=0|n=16384|sample=512|seed=11"
		if got := table1Key(topology.Zoot(), table1Comps()[0], 16384, 512); got != want {
			t.Fatalf("key mismatch:\n got %s\nwant %s", got, want)
		}
	})
}

// TestCellKeyAllocs guards the LRU-hit path: with the machine fingerprint
// cached on the machine, a key costs only its own string.
func TestCellKeyAllocs(t *testing.T) {
	r := NewRunner()
	for _, m := range []*topology.Machine{topology.Zoot(), topology.IG()} {
		cfg := Config{Machine: m, Comp: KNEMColl(), Op: OpBcast, Size: 1 << 20}
		r.CellKey(cfg) // computes the fingerprint once
		if n := testing.AllocsPerRun(100, func() { r.CellKey(cfg) }); n > 2 {
			t.Errorf("%s: CellKey allocates %v objects per call, want <= 2", m.Name, n)
		}
	}
}

func BenchmarkCellKey(b *testing.B) {
	for _, name := range []string{"IG", "MC512"} {
		b.Run(name, func(b *testing.B) {
			r := NewRunner()
			cfg := Config{Machine: topology.ByName(name), Comp: TunedSM(), Op: OpGather, Size: 64 << 10, OffCache: true}
			r.CellKey(cfg) // the machine's first key computes its fingerprint
			b.ReportAllocs()
			for b.Loop() {
				r.CellKey(cfg)
			}
		})
	}
}
