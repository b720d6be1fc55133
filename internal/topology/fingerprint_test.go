package topology

import (
	"fmt"
	"sync"
	"testing"
)

// TestFingerprintPinned pins every built-in machine's fingerprint, and
// that of perfbench's cluster_10k shape (eighty 128-core synthetic nodes
// behind one switch), to the value committed decision tables and on-disk
// memo entries are keyed by. A change here orphans them all: it must come
// with a deliberate memo fingerprint bump and re-tuned tables, never by
// accident.
func TestFingerprintPinned(t *testing.T) {
	want := map[string]string{
		"Zoot":   "bd4c68679560dddd",
		"Dancer": "651a25a4d6de0131",
		"Saturn": "359277511c5e4bfb",
		"IG":     "ea76f690002c8fd7",
		"MC128":  "02d1fac3b61ba8dd",
		"MC512":  "f79305f7b3e685cc",
	}
	for name, fp := range want {
		if got := ByName(name).Fingerprint(); got != fp {
			t.Errorf("%s: fingerprint = %s, want %s", name, got, fp)
		}
	}

	box := Synthetic(SyntheticSpec{
		Boards: 1, SocketsPerBoard: 16, CoresPerSocket: 8,
		BusBW: 35e9, LinkBW: 18e9,
		CacheSize: 32 << 20, CachePortBW: 60e9,
		Spec: ManyCore(128).Spec,
	})
	cfg := ClusterConfig{Name: "perfbench10k", Switch: &SwitchSpec{Name: "tor", BW: 12e9, Lat: 2e-6}}
	for i := range 80 {
		cfg.Nodes = append(cfg.Nodes, NodeSpec{Name: fmt.Sprintf("n%d", i), Machine: "box"})
	}
	cl, err := CompileCluster(cfg, func(string) (*Machine, error) { return box, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got, fp := cl.Global.Fingerprint(), "9ae68a8ec432ad92"; got != fp {
		t.Errorf("80 x 128 switch cluster: fingerprint = %s, want %s", got, fp)
	}
}

// TestFingerprintConcurrentFirstUse races the lazy first computation: every
// caller must see the one pinned value (and -race must stay quiet).
func TestFingerprintConcurrentFirstUse(t *testing.T) {
	m := IG()
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.Fingerprint()
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != "ea76f690002c8fd7" {
			t.Fatalf("goroutine %d saw fingerprint %q", i, fp)
		}
	}
}
