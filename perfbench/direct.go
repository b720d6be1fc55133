package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until write. Safe for concurrent
// use; a span's ID is its 1-based index.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name, attr string, parent int32) int32 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Name: name, Attr: attr, Start: now})
	return int32(len(t.spans))
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// write stores the spans as JSON, with each span name's total self time:
// its duration minus the time its child spans cover.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[string]int64{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
		if s.Parent != 0 {
			self[t.spans[s.Parent-1].Name] -= s.End - s.Start
		}
	}
	data, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		SelfNs map[string]int64 `json:"self_ns"`
	}{t.spans, self})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// directRunner runs cells through the simulator's layers directly, the
// way bench.MeasureForced does on a pooled shard — sim.NewEngine,
// memsim.New, Net.SetClusterIslands, mpi.Run with the IMB protocol body,
// then Engine and Net Reset before the next cell — so each call can be
// timed as a span. MeasureForced hides those calls; the traced runs check
// that this path reproduces its simulated results exactly.
type directRunner struct {
	tr   *tracer
	eng  *sim.Engine
	nets map[*topology.Machine]*memsim.Net
	used bool // eng has run a cell and must be reset
}

func newDirectRunner(tr *tracer) *directRunner {
	return &directRunner{tr: tr, eng: sim.NewEngine(), nets: map[*topology.Machine]*memsim.Net{}}
}

// directResult is one directly run cell: its simulated result, the events
// its engine fired, and the host time of each layer call.
type directResult struct {
	seconds float64
	stats   trace.Stats
	events  int64
	newNet  time.Duration // memsim.New, on the machine's first cell
	reset   time.Duration // Engine.Reset + Net.Reset, on later cells
	run     time.Duration // mpi.Run
}

// run simulates cfg (NP and Iters set) under the parent span.
func (d *directRunner) run(cfg bench.Config, parent int32) (directResult, error) {
	var res directResult
	stats := &trace.Stats{}
	net := d.nets[cfg.Machine]
	if d.used {
		sp := d.tr.begin("sim.Engine.Reset", "", parent)
		d.eng.Reset()
		res.reset = d.tr.end(sp)
	}
	if net == nil {
		sp := d.tr.begin("memsim.New", cfg.Machine.Name, parent)
		net = memsim.New(d.eng, cfg.Machine, stats)
		res.newNet = d.tr.end(sp)
		d.nets[cfg.Machine] = net
	} else {
		sp := d.tr.begin("memsim.Net.Reset", "", parent)
		net.Reset(stats)
		res.reset += d.tr.end(sp)
	}
	net.SetClusterIslands(cfg.Comp.Cluster)
	d.used = true
	perRank := make([]float64, cfg.NP)
	sp := d.tr.begin("mpi.Run", cfg.Comp.Name+"/"+string(cfg.Op), parent)
	_, _, err := mpi.Run(mpi.Options{
		Machine: cfg.Machine,
		NP:      cfg.NP,
		BTL:     cfg.Comp.BTL,
		KnemMin: cfg.Comp.KnemMin,
		SHM:     shm.Config{FragSize: 128 << 10}, // the harness's throughput fragment size
		Coll:    cfg.Comp.New,
		Engine:  d.eng,
		Net:     net,
	}, imbBody(cfg, stats, perRank))
	res.run = d.tr.end(sp)
	if err != nil {
		return res, fmt.Errorf("direct %s/%s/%s/%d: %w", cfg.Machine.Name, cfg.Comp.Name, cfg.Op, cfg.Size, err)
	}
	for _, v := range perRank {
		res.seconds = max(res.seconds, v)
	}
	res.stats = stats.Snapshot()
	res.events = d.eng.Fired()
	return res, nil
}

// imbBody is the IMB protocol the measurement harness runs on every rank:
// a warm-up iteration, then cfg.Iters timed ones, each behind a barrier
// and, off-cache, a cache flush; the time per operation goes to perRank.
// Single-machine cells zero the counters as the first timed iteration
// starts; cluster cells keep the warm-up's counters, as the harness does.
func imbBody(cfg bench.Config, stats *trace.Stats, perRank []float64) func(r *mpi.Rank) {
	return func(r *mpi.Rank) {
		var send, recv memsim.View
		p := int64(r.Size())
		switch cfg.Op {
		case bench.OpBcast:
			send = r.Alloc(cfg.Size).Whole()
		case bench.OpGather:
			send = r.Alloc(cfg.Size).Whole()
			if r.ID() == cfg.Root {
				recv = r.Alloc(p * cfg.Size).Whole()
			}
		case bench.OpAlltoall:
			send = r.Alloc(p * cfg.Size).Whole()
			recv = r.Alloc(p * cfg.Size).Whole()
		default:
			panic("perfbench: direct path has no body for op " + string(cfg.Op))
		}
		var total float64
		for it := -1; it < cfg.Iters; it++ {
			r.Barrier()
			if cfg.OffCache {
				if r.ID() == 0 {
					r.World().Net().FlushCaches()
				}
				r.Barrier()
			}
			if it == 0 && cfg.Comp.Cluster == nil {
				stats.Reset()
			}
			t0 := r.Now()
			switch cfg.Op {
			case bench.OpBcast:
				r.Bcast(send, cfg.Root)
			case bench.OpGather:
				r.Gather(send, recv, cfg.Root)
			case bench.OpAlltoall:
				r.Alltoall(send, recv)
			}
			if it >= 0 {
				total += r.Now() - t0
			}
		}
		perRank[r.ID()] = total / float64(cfg.Iters)
	}
}
