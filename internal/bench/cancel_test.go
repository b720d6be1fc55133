package bench

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/topology"
)

// TestMeasureCtxCancelled pins the cheap paths: an already-cancelled
// context aborts before any simulation, and MeasureAllCtx surfaces the
// cancellation instead of partial results.
func TestMeasureCtxCancelled(t *testing.T) {
	r := NewRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := memoTestConfig(topology.Dancer(), 64*KiB)
	if _, err := r.MeasureCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeasureCtx on a cancelled ctx: %v, want context.Canceled", err)
	}
	if _, err := r.MeasureAllCtx(ctx, []Config{cfg, cfg}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeasureAllCtx on a cancelled ctx: %v, want context.Canceled", err)
	}
}

// TestMeasureAllCtxCancelMidSweep cancels a multi-cell sweep while cells
// are simulating, under the race detector and at -parallel 4: the sweep
// must abort with context.Canceled, and — the shard-leak check — the very
// next Measure on the same pool must still replay bit-identically to a
// fresh-process run, proving the aborted cells released their engine
// shards in a Reset-able state.
func TestMeasureAllCtxCancelMidSweep(t *testing.T) {
	m := topology.IG()
	reference := NewRunner().MustMeasure(memoTestConfig(m, 64*KiB))

	var cfgs []Config
	for i := 0; i < 8; i++ {
		for _, sz := range []int64{1 * MiB, 2 * MiB} {
			cfgs = append(cfgs, memoTestConfig(m, sz))
		}
	}
	r := NewRunner()
	r.SetParallel(4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond) // let some cells reach mid-simulation
		cancel()
	}()
	res, err := r.MeasureAllCtx(ctx, cfgs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned err=%v (results=%v), want context.Canceled", err, res != nil)
	}

	// The pool now holds shards whose last cell was interrupted; reusing
	// them must be indistinguishable from fresh engines.
	after := r.MustMeasure(memoTestConfig(m, 64*KiB))
	if after.Seconds != reference.Seconds || !reflect.DeepEqual(after.Stats, reference.Stats) {
		t.Fatalf("post-cancel measurement diverges: %v vs %v", after.Seconds, reference.Seconds)
	}
}

// TestMeasureCtxCancelReleasesFlight pins the singleflight/cancel
// interaction: a leader cancelled mid-simulation fails its flight, and a
// waiter with a live context retries and completes with the correct
// result rather than hanging or inheriting the leader's cancellation.
func TestMeasureCtxCancelReleasesFlight(t *testing.T) {
	r := NewRunner()
	if err := r.EnableCache(""); err != nil {
		t.Fatal(err)
	}
	m := topology.IG()
	cfg := memoTestConfig(m, 2*MiB)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := r.MeasureCtx(leaderCtx, cfg)
		leaderErr <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancelLeader()
	err := <-leaderErr
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("leader returned %v, want nil (finished first) or context.Canceled", err)
	}

	got, gerr := r.MeasureCtx(context.Background(), cfg)
	if gerr != nil {
		t.Fatalf("follow-up measure after cancelled leader: %v", gerr)
	}
	want := NewRunner().MustMeasure(cfg)
	if got.Seconds != want.Seconds || !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("post-cancel flight result diverges: %v vs %v", got.Seconds, want.Seconds)
	}
}
