package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/internal/trace"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names and units (TestMetricTablesMatchBenchmarkJSON keeps them in step).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the figures a user of the simulator sees, reported by every
// workload with tracing off. A workload's unit of work is a batch: a
// paper_sweep round of 65 cells, one cluster_10k cell, one served
// POST /v1/cells request.
var endToEnd = []metricDef{
	{"setup_s", "s"},             // median of the workload's repeated set-ups
	{"cold_batch_s", "s"},        // median batch on fresh shards / a fresh server and memo
	{"warm_batch_s", "s"},        // median batch on warmed state
	{"cells_per_s", "1/s"},       // cells per host second: a median over rounds or sessions, over all cells at cluster_10k
	{"peak_heap_bytes", "bytes"}, // highest live heap the collector marked during the batches
}

// perLayer are the traced run's figures, one group per layer. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"topology.compile_s", "s"},
	{"memsim.new_s", "s"},
	{"memsim.reset_s", "s"},
	{"mpi.run_s", "s"},
	{"sim.events", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"coll.Tuned-SM.host_s", "s"},
	{"coll.Tuned-KNEM.host_s", "s"},
	{"coll.MPICH2-SM.host_s", "s"},
	{"coll.MPICH2-KNEM.host_s", "s"},
	{"coll.KNEM-Coll.host_s", "s"},
	{"coll.bcast.host_s", "s"},
	{"coll.gather.host_s", "s"},
	{"coll.alltoall.host_s", "s"},
	{"memsim.copies", "count"},
	{"memsim.bytes_copied", "bytes"},
	{"memsim.cache_hit_ratio", "ratio"},
	{"knem.registrations", "count"},
	{"knem.kernel_traps", "count"},
	{"shm.ctrl_msgs", "count"},
	{"bench.allocs_per_cell", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"bench.shard_arena_bytes", "bytes"},
	{"bench.memo_hits", "count"},
	{"bench.memo_misses", "count"},
	{"bench.deduped", "count"},
	{"bench.resimulated", "count"},
	{"bench.disk_memo_s_per_miss", "s"},
	{"serve.hit_ratio", "ratio"},
	{"serve.stats_hit_rate", "ratio"},
	{"serve.batch_p99_s", "s"},
	{"serve.cell_p50_s", "s"},
	{"serve.http_overhead_s", "s"},
	{"serve.lru_hits", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.direct_mismatches", "count"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line: the last line of its output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed cells. A cell fails when it errors or
// when its simulated result differs from the pinned reference.
type tally struct {
	attempted, failed int64
}

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// median returns the median of xs (the mean of the middle pair for even
// lengths), or NaN for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or NaN for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// Runtime counters read through runtime/metrics, which needs no
// stop-the-world pause.
const (
	heapLiveMetric   = "/gc/heap/live:bytes"
	heapAllocsMetric = "/gc/heap/allocs:objects"
	gcCPUMetric      = "/cpu/classes/gc/total:cpu-seconds"
	totalCPUMetric   = "/cpu/classes/total:cpu-seconds"
)

// readRuntime returns the current values of the named runtime metrics.
func readRuntime(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// heapPeak samples the live heap every millisecond in the background and
// keeps the highest value seen. The live heap is what the last collection
// marked reachable. The heap's total object bytes would also count the
// garbage awaiting the next collection, which depends on where collections
// fall: on cluster_10k it read 676 or 940 MB for the same work.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: heapLiveMetric}}
		for {
			metrics.Read(s)
			h.peak = max(h.peak, float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return max(h.peak, readRuntime(heapLiveMetric)[0])
}

// gcWatch measures the share of CPU time spent in the garbage collector
// between its start and a call to frac.
type gcWatch struct{ gc0, total0 float64 }

func startGCWatch() gcWatch {
	v := readRuntime(gcCPUMetric, totalCPUMetric)
	return gcWatch{v[0], v[1]}
}

func (w gcWatch) frac() float64 {
	v := readRuntime(gcCPUMetric, totalCPUMetric)
	if v[1] <= w.total0 {
		return 0
	}
	return (v[0] - w.gc0) / (v[1] - w.total0)
}

// zeroLayers returns every per-layer metric at 0, the value of a layer the
// workload does not exercise.
func zeroLayers() map[string]float64 {
	values := map[string]float64{}
	for _, d := range perLayer {
		values[d.Name] = 0
	}
	return values
}

// addStatsLayers records the simulated-side counters of one batch: these
// move with simulated time only, so a speed-only change leaves them
// identical.
func addStatsLayers(values map[string]float64, st trace.Stats) {
	values["memsim.copies"] = float64(st.Copies)
	values["memsim.bytes_copied"] = float64(st.BytesCopied)
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		values["memsim.cache_hit_ratio"] = float64(st.CacheHits) / float64(n)
	}
	values["knem.registrations"] = float64(st.Registrations)
	values["knem.kernel_traps"] = float64(st.KernelTraps)
	values["shm.ctrl_msgs"] = float64(st.CtrlMsgs)
}
