package memsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topology"
)

const MB = 1 << 20

func setup(m *topology.Machine) (*sim.Engine, *Net) {
	e := sim.NewEngine()
	return e, New(e, m, nil)
}

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol*want {
		t.Fatalf("%s = %.12g, want %.12g (tol %g)", what, got, want, tol)
	}
}

func TestSingleLocalCopyEngineBound(t *testing.T) {
	m := topology.Dancer()
	e, n := setup(m)
	d0 := m.Domains[0]
	src := n.Alloc(d0, MB, false)
	dst := n.Alloc(d0, MB, false)
	var end sim.Time
	e.Spawn("p", func(p *sim.Proc) {
		n.Copy(p, m.Cores[0], dst.Whole(), src.Whole())
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Engine 4.5 GB/s binds (bus would allow 16/2 = 8 GB/s).
	approx(t, end, float64(MB)/4.5e9, 1e-6, "copy time")
}

func TestBusSaturationManyCores(t *testing.T) {
	m := topology.Dancer()
	e, n := setup(m)
	d0 := m.Domains[0]
	var end sim.Time
	for i := 0; i < 4; i++ {
		c := d0.Cores[i]
		src := n.Alloc(d0, MB, false)
		dst := n.Alloc(d0, MB, false)
		e.Spawn("p", func(p *sim.Proc) {
			n.Copy(p, c, dst.Whole(), src.Whole())
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 flows × weight 2 on the 16 GB/s bus → 2 GB/s each (engines allow 4.5).
	approx(t, end, float64(MB)/2e9, 1e-6, "saturated time")
}

func TestCrossDomainUsesQPI(t *testing.T) {
	m := topology.Dancer()
	e, n := setup(m)
	src := n.Alloc(m.Domains[1], MB, false)
	dst := n.Alloc(m.Domains[0], MB, false)
	e.Spawn("p", func(p *sim.Proc) {
		n.Copy(p, m.Cores[0], dst.Whole(), src.Whole())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats().LinkBytes["qpi"] != MB {
		t.Fatalf("qpi bytes = %d, want %d", n.Stats().LinkBytes["qpi"], MB)
	}
	if n.Stats().LinkBytes["mem0"] != MB || n.Stats().LinkBytes["mem1"] != MB {
		t.Fatalf("bus bytes = %v", n.Stats().LinkBytes)
	}
}

func TestDataActuallyCopied(t *testing.T) {
	m := topology.Zoot()
	e, n := setup(m)
	src := n.Alloc(m.Domains[0], 1024, true)
	dst := n.Alloc(m.Domains[0], 1024, true)
	for i := range src.Data {
		src.Data[i] = byte(i * 7)
	}
	e.Spawn("p", func(p *sim.Proc) {
		n.Copy(p, m.Cores[0], dst.View(0, 512), src.View(512, 512))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if dst.Data[i] != src.Data[512+i] {
			t.Fatalf("byte %d: got %d want %d", i, dst.Data[i], src.Data[512+i])
		}
	}
	for i := 512; i < 1024; i++ {
		if dst.Data[i] != 0 {
			t.Fatalf("byte %d overwritten", i)
		}
	}
}

func TestZeroLengthCopyInstant(t *testing.T) {
	m := topology.Zoot()
	e, n := setup(m)
	b := n.Alloc(m.Domains[0], 16, false)
	e.Spawn("p", func(p *sim.Proc) {
		n.Copy(p, m.Cores[0], b.View(0, 0), b.View(0, 0))
		if p.Now() != 0 {
			t.Errorf("zero copy took time %g", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Copies != 0 {
		t.Errorf("zero copy counted")
	}
}

// The root-serialization effect (§III-A): one core pushing to 4 peers is
// slower than 4 peers each pulling their own copy.
func TestParallelPullBeatsSerialPush(t *testing.T) {
	m := topology.Dancer()
	run := func(parallel bool) sim.Time {
		e, n := setup(m)
		d0, d1 := m.Domains[0], m.Domains[1]
		src := n.Alloc(d0, 4*MB, false)
		dsts := make([]*Buffer, 4)
		for i := range dsts {
			dsts[i] = n.Alloc(d1, 4*MB, false)
		}
		var end sim.Time
		if parallel {
			for i := range dsts {
				i := i
				e.Spawn("r", func(p *sim.Proc) {
					n.Copy(p, d1.Cores[i], dsts[i].Whole(), src.Whole())
					if p.Now() > end {
						end = p.Now()
					}
				})
			}
		} else {
			e.Spawn("root", func(p *sim.Proc) {
				for i := range dsts {
					n.Copy(p, d0.Cores[0], dsts[i].Whole(), src.Whole())
				}
				end = p.Now()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	serial, par := run(false), run(true)
	if par >= serial {
		t.Fatalf("parallel pull (%g) not faster than serial push (%g)", par, serial)
	}
	// 4 pulls: QPI 11 GB/s shared by 4 → 2.75 each; serial: 4×4MB at 3? engine 4.5 vs qpi 11: 4.5 binds per copy.
	approx(t, serial, 16*float64(MB)/4.5e9, 1e-6, "serial")
	approx(t, par, 16*float64(MB)/11e9, 1e-6, "parallel")
}

func TestCacheHitAfterTouch(t *testing.T) {
	m := topology.Dancer()
	e, n := setup(m)
	d0 := m.Domains[0]
	a := n.Alloc(d0, MB, false)
	b := n.Alloc(d0, MB, false)
	c := n.Alloc(d0, MB, false)
	e.Spawn("p", func(p *sim.Proc) {
		n.Copy(p, m.Cores[0], b.Whole(), a.Whole()) // warms a and b in group 0
		n.Copy(p, m.Cores[1], c.Whole(), b.Whole()) // same group: hit on b
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats().CacheHits != 1 || n.Stats().CacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", n.Stats().CacheHits, n.Stats().CacheMisses)
	}
}

func TestCacheFlush(t *testing.T) {
	m := topology.Dancer()
	e, n := setup(m)
	d0 := m.Domains[0]
	a := n.Alloc(d0, MB, false)
	b := n.Alloc(d0, MB, false)
	e.Spawn("p", func(p *sim.Proc) {
		n.Copy(p, m.Cores[0], b.Whole(), a.Whole())
		n.FlushCaches()
		n.Copy(p, m.Cores[0], b.Whole(), a.Whole())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats().CacheHits != 0 {
		t.Fatalf("hits=%d after flush, want 0", n.Stats().CacheHits)
	}
}

func TestRemoteCacheHitSkipsDRAM(t *testing.T) {
	m := topology.Dancer()
	e, n := setup(m)
	d0, d1 := m.Domains[0], m.Domains[1]
	a := n.Alloc(d0, MB, false)
	b := n.Alloc(d0, MB, false)
	c := n.Alloc(d1, MB, false)
	e.Spawn("p", func(p *sim.Proc) {
		n.Copy(p, m.Cores[0], b.Whole(), a.Whole()) // a hot in group 0
		before := n.Stats().LinkBytes["mem0"]
		n.Copy(p, d1.Cores[0], c.Whole(), a.Whole()) // remote reader: cache-to-cache
		after := n.Stats().LinkBytes["mem0"]
		if after != before {
			t.Errorf("remote cache hit still read DRAM: mem0 %d -> %d", before, after)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats().CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", n.Stats().CacheHits)
	}
	if n.Stats().LinkBytes["cache0"] == 0 || n.Stats().LinkBytes["qpi"] != MB {
		t.Fatalf("links = %v", n.Stats().LinkBytes)
	}
}

func TestHugeRegionNeverCaches(t *testing.T) {
	m := topology.Dancer() // 8 MB L3
	e, n := setup(m)
	d0 := m.Domains[0]
	a := n.Alloc(d0, 16*MB, false)
	b := n.Alloc(d0, 16*MB, false)
	e.Spawn("p", func(p *sim.Proc) {
		n.Copy(p, m.Cores[0], b.Whole(), a.Whole())
		n.Copy(p, m.Cores[0], b.Whole(), a.Whole())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats().CacheHits != 0 {
		t.Fatalf("hits = %d for cache-exceeding region", n.Stats().CacheHits)
	}
}

func TestPrefixResidencySegments(t *testing.T) {
	m := topology.Dancer()
	e, n := setup(m)
	d0 := m.Domains[0]
	a := n.Alloc(d0, MB, false)
	tmp := n.Alloc(d0, MB, false)
	g0 := m.Groups[0]
	e.Spawn("p", func(p *sim.Proc) {
		seg := int64(256 * 1024)
		for s := int64(0); s < 4; s++ {
			n.Copy(p, m.Cores[0], tmp.View(s*seg, seg), a.View(s*seg, seg))
			if !n.Resident(g0, a.View(0, (s+1)*seg)) {
				t.Errorf("prefix %d not resident after segment %d", (s+1)*seg, s)
			}
			if s < 3 && n.Resident(g0, a.Whole()) {
				t.Errorf("whole region resident too early at segment %d", s)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEviction(t *testing.T) {
	m := topology.Dancer() // 8 MB per group
	e, n := setup(m)
	d0 := m.Domains[0]
	g0 := m.Groups[0]
	bufs := make([]*Buffer, 5)
	tmp := n.Alloc(d0, 2*MB, false)
	for i := range bufs {
		bufs[i] = n.Alloc(d0, 2*MB, false)
	}
	e.Spawn("p", func(p *sim.Proc) {
		for _, b := range bufs {
			n.Copy(p, m.Cores[0], tmp.Whole(), b.Whole())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 5 sources (2 MB) + tmp repeatedly touched; capacity 8 MB → oldest sources evicted.
	if n.Resident(g0, bufs[0].Whole()) {
		t.Error("oldest buffer still resident")
	}
	if !n.Resident(g0, bufs[4].Whole()) {
		t.Error("newest buffer not resident")
	}
	if !n.Resident(g0, tmp.Whole()) {
		t.Error("hot tmp evicted")
	}
}

func TestDMACopyFreesCore(t *testing.T) {
	m := topology.Synthetic(topology.SyntheticSpec{
		Boards: 1, SocketsPerBoard: 2, CoresPerSocket: 2,
		BusBW: 16e9, LinkBW: 11e9, BoardLinkBW: 1,
		CacheSize: 8 * MB, CachePortBW: 30e9,
		Spec: topology.Spec{CoreCopyBW: 4.5e9, KernelTrap: 1e-7, CtrlLatency: 3e-7, Flops: 1e9, DMABw: 6e9},
	})
	e, n := setup(m)
	d0 := m.Domains[0]
	src := n.Alloc(d0, MB, false)
	dst := n.Alloc(d0, MB, false)
	e.Spawn("p", func(p *sim.Proc) {
		pe := n.CopyDMA(m.Cores[0], dst.Whole(), src.Whole())
		if pe.Done() {
			t.Error("DMA completed instantly")
		}
		pe.Wait(p)
		approx(t, p.Now(), float64(MB)/6e9, 1e-6, "dma time")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// DMA bypasses caches.
	if n.Stats().CacheHits+n.Stats().CacheMisses != 1 || n.Resident(m.Groups[0], src.Whole()) {
		t.Error("DMA copy affected cache state")
	}
}

// Property: max-min allocation is feasible (no link over capacity) and
// work-conserving (every flow is bottlenecked somewhere).
func TestMaxMinFairnessProperty(t *testing.T) {
	m := topology.IG()
	f := func(seed int64, nf uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		n := New(e, m, nil)
		count := int(nf%20) + 1
		for i := 0; i < count; i++ {
			core := m.Cores[rng.Intn(len(m.Cores))]
			src := n.Alloc(m.Domains[rng.Intn(len(m.Domains))], MB, false)
			dst := n.Alloc(m.Domains[rng.Intn(len(m.Domains))], MB, false)
			n.startCopy(core.Engine, core, dst.Whole(), src.Whole())
		}
		load := make([]float64, len(m.Links))
		for _, fl := range n.flows {
			if fl.rate <= 0 {
				return false
			}
			for _, u := range fl.uses {
				load[u.link.Index] += fl.rate * u.mult
			}
		}
		for i, l := range m.Links {
			if load[i] > l.BW*(1+1e-9) {
				return false
			}
		}
		// Every flow bottlenecked: crosses a saturated link where no other
		// flow has a higher rate.
		for _, fl := range n.flows {
			ok := false
			for _, u := range fl.uses {
				i := u.link.Index
				if load[i] < m.Links[i].BW*(1-1e-9) {
					continue
				}
				maxRate := 0.0
				for _, other := range n.flows {
					for _, ou := range other.uses {
						if ou.link.Index == i && other.rate > maxRate {
							maxRate = other.rate
						}
					}
				}
				if fl.rate >= maxRate*(1-1e-9) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: bytes are conserved — identical flows on a shared bottleneck
// finish together at exactly total/capacity.
func TestConservationProperty(t *testing.T) {
	m := topology.Dancer()
	f := func(nf uint8, sz uint16) bool {
		count := int(nf%4) + 1
		size := int64(sz)*1024 + 4096
		e := sim.NewEngine()
		n := New(e, m, nil)
		d0 := m.Domains[0]
		var ends []sim.Time
		for i := 0; i < count; i++ {
			c := d0.Cores[i]
			src := n.Alloc(d0, size, false)
			dst := n.Alloc(d0, size, false)
			e.Spawn("p", func(p *sim.Proc) {
				n.Copy(p, c, dst.Whole(), src.Whole())
				ends = append(ends, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		perFlow := math.Min(4.5e9, 16e9/float64(2*count))
		want := float64(size) / perFlow
		for _, end := range ends {
			if math.Abs(end-want) > 1e-6*want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestViewBounds(t *testing.T) {
	m := topology.Zoot()
	_, n := setup(m)
	b := n.Alloc(m.Domains[0], 100, false)
	for _, bad := range [][2]int64{{-1, 10}, {0, 101}, {90, 20}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("View(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			b.View(bad[0], bad[1])
		}()
	}
	v := b.View(10, 50)
	sv := v.SubView(5, 10)
	if sv.Off != 15 || sv.Len != 10 {
		t.Fatalf("subview = %+v", sv)
	}
}

func TestMismatchedLengthPanics(t *testing.T) {
	m := topology.Zoot()
	_, n := setup(m)
	b := n.Alloc(m.Domains[0], 100, false)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	n.startCopy(m.Cores[0].Engine, m.Cores[0], b.View(0, 10), b.View(10, 20))
}
