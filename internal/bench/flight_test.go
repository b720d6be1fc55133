package bench

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/topology"
)

// TestConcurrentMemoSingleflight hammers one sharded cache directory from
// many goroutines issuing a mix of hits, misses, and populates over a
// small set of distinct cells. The singleflight layer must collapse every
// concurrent duplicate — the miss counter equals the number of distinct
// cells, i.e. no cell is ever simulated twice — and every returned result
// must be byte-identical to the uncached sequential measurement.
func TestConcurrentMemoSingleflight(t *testing.T) {
	m := topology.Dancer()
	sizes := []int64{32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB}
	want := make([]Result, len(sizes))
	for i, sz := range sizes {
		want[i] = NewRunner().MustMeasure(memoTestConfig(m, sz))
	}

	dir := t.TempDir()
	r := NewRunner()
	if err := r.EnableCache(dir); err != nil {
		t.Fatal(err)
	}

	const goroutines = 24
	got := make([][]Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]Result, len(sizes))
			for i := range sizes {
				// Stagger the order per goroutine so hit/miss/populate and
				// in-flight waits interleave differently on every run.
				j := (i + g) % len(sizes)
				res, err := r.MeasureCtx(context.Background(), memoTestConfig(m, sizes[j]))
				if err != nil {
					t.Error(err)
					return
				}
				got[g][j] = res
			}
		}(g)
	}
	wg.Wait()

	for g := range got {
		for i := range sizes {
			if got[g][i].Seconds != want[i].Seconds || !reflect.DeepEqual(got[g][i].Stats, want[i].Stats) {
				t.Fatalf("goroutine %d cell %d diverges: %v vs %v", g, i, got[g][i].Seconds, want[i].Seconds)
			}
		}
	}
	hits, misses := r.CacheCounts()
	if misses != int64(len(sizes)) {
		t.Fatalf("%d misses for %d distinct cells: a concurrent duplicate was simulated", misses, len(sizes))
	}
	if total := int64(goroutines * len(sizes)); hits != total-misses {
		t.Fatalf("counts don't balance: %d hits + %d misses != %d calls", hits, misses, total)
	}

	// Byte-identical read-back through the persistent layer: a fresh cache
	// over the same directory must serve every cell from disk, and the
	// JSON-serialized results must match the sequential ones exactly.
	r.DisableCache()
	if err := r.EnableCache(dir); err != nil {
		t.Fatal(err)
	}
	for i, sz := range sizes {
		res := r.MustMeasure(memoTestConfig(m, sz))
		a, _ := json.Marshal(Result{Seconds: res.Seconds, Stats: res.Stats})
		b, _ := json.Marshal(Result{Seconds: want[i].Seconds, Stats: want[i].Stats})
		if string(a) != string(b) {
			t.Fatalf("disk read-back not byte-identical for size %d:\n%s\n%s", sz, a, b)
		}
	}
	if hits, misses := r.CacheCounts(); misses != 0 || hits != int64(len(sizes)) {
		t.Fatalf("read-back counts = %d hits, %d misses; want %d, 0", hits, misses, len(sizes))
	}
	if n := r.DedupedCount(); n != 0 {
		t.Fatalf("sequential read-back recorded %d deduped calls", n)
	}
}
