package bench

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/topology"
)

// TestParallelSweepByteIdentical runs a small Fig5-style sweep (Broadcast,
// three components, two sizes) sequentially and at -parallel 4, and
// asserts the rendered panels are byte-identical. Under `go test -race`
// (make test-race) this also proves the worker pool shares nothing mutable
// between cells beyond the immutable machine model.
func TestParallelSweepByteIdentical(t *testing.T) {
	render := func(par int) string {
		r := NewRunner()
		r.SetParallel(par)
		m := topology.Dancer()
		sizes := []int64{64 * KiB, 256 * KiB}
		p := Panel{
			Title:    "Broadcast on Dancer",
			Machine:  m.Name,
			Baseline: "KNEM-Coll",
			Sizes:    sizes,
			Series:   r.sweep(m, m.NCores(), OpBcast, []Comp{TunedSM(), MPICH2SM(), KNEMColl()}, sizes, 1, true),
		}
		var sb strings.Builder
		p.Render(&sb)
		return sb.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Fatalf("parallel sweep output differs from sequential:\n--- parallel=1\n%s\n--- parallel=4\n%s", seq, par)
	}
	if !strings.Contains(seq, "KNEM-Coll") {
		t.Fatal("sweep output missing series")
	}
}

// TestRunCellsCoversAllIndices checks the pool visits every cell exactly
// once and honors the clamped parallelism level.
func TestRunCellsCoversAllIndices(t *testing.T) {
	r := NewRunner()
	if r.Parallel() != 1 {
		t.Fatalf("new runner Parallel() = %d, want 1", r.Parallel())
	}
	r.SetParallel(3)
	if r.Parallel() != 3 {
		t.Fatalf("Parallel() = %d, want 3", r.Parallel())
	}
	var hits [100]atomic.Int32
	if err := r.runCellsCtx(context.Background(), len(hits), func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("cell %d ran %d times", i, got)
		}
	}
	r.SetParallel(0) // clamps to sequential
	if r.Parallel() != 1 {
		t.Fatalf("Parallel() after SetParallel(0) = %d, want 1", r.Parallel())
	}
}

// TestRunCellsPropagatesPanic: a panicking cell must fail the sweep on the
// caller, sequentially and in parallel, not be swallowed by (or crash the
// process from) a worker goroutine.
func TestRunCellsPropagatesPanic(t *testing.T) {
	for _, par := range []int{1, 4} {
		r := NewRunner()
		r.SetParallel(par)
		got := func() (p any) {
			defer func() { p = recover() }()
			r.runCellsCtx(context.Background(), 8, func(i int) error {
				if i == 5 {
					panic("cell exploded")
				}
				return nil
			})
			return nil
		}()
		if want := "bench: cell 5 failed: cell exploded"; got != want {
			t.Fatalf("parallel %d: recovered %v, want %q", par, got, want)
		}
	}
}

// TestRunCellsLowestErrorWins: with several failing cells the reported
// error is the lowest-indexed one at every parallelism level.
func TestRunCellsLowestErrorWins(t *testing.T) {
	for _, par := range []int{1, 4} {
		r := NewRunner()
		r.SetParallel(par)
		err := r.runCellsCtx(context.Background(), 16, func(i int) error {
			if i%5 == 3 {
				return fmt.Errorf("cell %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 3" {
			t.Fatalf("parallel %d: err = %v, want cell 3", par, err)
		}
	}
}
