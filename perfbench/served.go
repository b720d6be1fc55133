package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
)

// server is one in-process simd with the default options, listening on
// loopback.
type server struct {
	hs     *http.Server
	served chan struct{} // closed when Serve returns
	base   string
	client *http.Client
}

// startServer starts a server over the harness's current memo and waits
// until it answers GET /v1/stats.
func startServer(ctx context.Context) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &server{
		hs:     &http.Server{Handler: serve.New(serve.Options{}).Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: servedClients}},
	}
	go func() {
		defer close(srv.served)
		srv.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	if _, err := srv.stats(ctx); err != nil {
		srv.stop()
		return nil, err
	}
	return srv, nil
}

// stop shuts the server down and waits for it.
func (srv *server) stop() error {
	err := srv.hs.Close()
	<-srv.served
	srv.client.CloseIdleConnections()
	return err
}

// post sends one batch and returns the decoded response.
func (srv *server) post(ctx context.Context, req serve.BatchRequest) (*serve.BatchResponse, error) {
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.base+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := srv.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/cells: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var out serve.BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("POST /v1/cells: %v", err)
	}
	return &out, nil
}

// stats fetches GET /v1/stats.
func (srv *server) stats(ctx context.Context) (*serve.StatsResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := srv.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %v", err)
	}
	return &st, nil
}

// batchOutcome is one client request as the client saw it.
type batchOutcome struct {
	seconds float64
	opening bool
	cells   int
	failed  int
}

// sessionOutcome is everything one session measured.
type sessionOutcome struct {
	starts   []float64 // each server start, until it answered its first request
	serving  float64   // first request to last response, summed over both servers
	batches  []batchOutcome
	distinct int64 // distinct cells requested (each must simulate once)
	// The harness's memo counters over the session.
	hits, misses, deduped int64
	servers               []*serve.StatsResponse // each server's statistics, when traced
}

// takeCounts adds the harness's memo counters to the session's; enabling
// the memo zeroes them.
func (out *sessionOutcome) takeCounts() {
	h, m := bench.CacheCounts()
	out.hits += h
	out.misses += m
	out.deduped += bench.DedupedCount()
}

// runSession serves session s of the plan. It empties the shard pool and
// the memo (the memo moves to a new directory under memoRoot, or stays
// in-process for "") and starts a server. The server gets the opening
// batch alone and then each client's first half of the plan. The server
// is then restarted over the same memo, as a redeployed simd would be,
// for the second halves: a recurring cell the first server computed is a
// memo read there until the new server's LRU holds it. Every result is
// checked against the reference. With tr set it records a span per
// request and fetches each server's statistics before stopping it.
func runSession(ctx context.Context, o options, universe [][]cellSpec, memoRoot string, s int, tr *tracer) (*sessionOutcome, error) {
	plan := servedSession(o.seed, s)
	out := &sessionOutcome{}
	seen := map[string]bool{}
	for _, r := range append([]servedReq{plan.Opening}, slices.Concat(plan.Clients[:]...)...) {
		for _, ci := range r.Cells {
			seen[universe[r.Machine][ci].key()] = true
		}
	}
	out.distinct = int64(len(seen))

	var root int32
	if tr != nil {
		root = tr.begin("served_batch.session", fmt.Sprint(s), 0)
		defer tr.end(root)
	}
	dir := ""
	if memoRoot != "" {
		dir = filepath.Join(memoRoot, fmt.Sprint(s))
	}
	// Serving grows a shard's net map by one net per simulated cell until
	// a collection drops the shard; across sessions that growth reached
	// anywhere from 15 to 70 MB in 30 s runs, by when collections fell.
	// Emptying the pool bounds the peak heap's share of it to one session.
	dropShards()
	bench.DisableCache()
	defer bench.DisableCache()
	if err := bench.EnableCache(dir); err != nil {
		return nil, err
	}
	const half = servedBatches / 2
	for life := range 2 {
		if life == 1 && dir != "" {
			// The restarted server reads the memo back from its directory.
			out.takeCounts()
			bench.DisableCache()
			if err := bench.EnableCache(dir); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		srv, err := startServer(ctx)
		if err != nil {
			return nil, err
		}
		out.starts = append(out.starts, time.Since(t0).Seconds())
		t0 = time.Now()
		if life == 0 {
			b := postBatch(ctx, o, srv, universe, plan.Opening, tr, root)
			b.opening = true
			out.batches = append(out.batches, b)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		for _, reqs := range plan.Clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, r := range reqs[life*half : (life+1)*half] {
					b := postBatch(ctx, o, srv, universe, r, tr, root)
					mu.Lock()
					out.batches = append(out.batches, b)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		out.serving += time.Since(t0).Seconds()
		if tr != nil {
			st, err := srv.stats(ctx)
			if err != nil {
				srv.stop()
				return nil, err
			}
			out.servers = append(out.servers, st)
		}
		if err := srv.stop(); err != nil {
			return nil, err
		}
	}
	out.takeCounts()
	return out, nil
}

// postBatch sends one planned batch and checks its results.
func postBatch(ctx context.Context, o options, srv *server, universe [][]cellSpec, r servedReq, tr *tracer, parent int32) batchOutcome {
	specs := make([]cellSpec, len(r.Cells))
	req := serve.BatchRequest{Machine: servedMachines[r.Machine].Name}
	for i, ci := range r.Cells {
		c := universe[r.Machine][ci]
		specs[i] = c
		req.Cells = append(req.Cells, serve.CellSpec{
			Comp: c.Comp, Op: c.Op, Size: c.Size, NP: c.NP, Iters: c.Iters, OffCache: c.OffCache, Root: c.Root,
		})
	}
	var sp int32
	if tr != nil {
		sp = tr.begin("serve.POST /v1/cells", req.Machine, parent)
	}
	t0 := time.Now()
	resp, err := srv.post(ctx, req)
	b := batchOutcome{seconds: time.Since(t0).Seconds(), cells: len(specs)}
	if tr != nil {
		tr.end(sp)
	}
	if err == nil && len(resp.Results) != len(specs) {
		err = fmt.Errorf("%d results for %d cells", len(resp.Results), len(specs))
	}
	if err != nil {
		fmt.Fprintln(o.log, "perfbench: served_batch:", err)
		b.failed = len(specs)
		return b
	}
	for i, c := range specs {
		got := resp.Results[i]
		if got.Comp != c.Comp || got.Op != c.Op || got.Size != c.Size || got.NP != c.NP ||
			!o.ref.matches(c, got.Seconds, nil) {
			fmt.Fprintf(o.log, "perfbench: served_batch: %s: served %.9g s differs from the reference\n", c.key(), got.Seconds)
			b.failed++
		}
	}
	return b
}

// hitRatio is the share of served cells that needed no simulation of
// their own, counted outside the server: served by the client, misses by
// the harness's memo counters. A ratio outside [0, 1], or fewer misses
// than distinct cells, means the counters do not describe the traffic.
func hitRatio(served, misses, distinct int64) (float64, error) {
	if served <= 0 {
		return 0, fmt.Errorf("no cells served")
	}
	r := 1 - float64(misses)/float64(served)
	if r < 0 || r > 1 {
		return r, fmt.Errorf("hit ratio %g outside [0, 1] (%d misses for %d served cells)", r, misses, served)
	}
	if misses < distinct {
		return r, fmt.Errorf("%d misses for %d distinct cells: cells were served without being simulated", misses, distinct)
	}
	return r, nil
}

// runServed is the served_batch workload: sessions of in-process simd
// servers over an in-process memo, each driven by two closed-loop clients
// POSTing /v1/cells batches from the seeded plan (servedSession). The
// disk memo is left to the traced run: on a shared virtual
// disk its file writes take from 0.2 to 0.8 ms each, run to run, which
// would make every end-to-end figure measure the disk.
func runServed(ctx context.Context, o options) (*report, error) {
	universe := make([][]cellSpec, len(servedMachines))
	for mi := range servedMachines {
		universe[mi] = servedUniverse(mi)
	}
	if o.trace {
		return traceServed(ctx, o, universe)
	}
	heap := startHeapPeak()
	outs, err := runSessions(ctx, o, universe, "", 0, o.seconds, nil)
	peak := heap.Stop()
	if err != nil {
		return nil, err
	}
	agg := aggregate(o, outs)
	return newReport(agg.t, endToEnd, map[string]float64{
		"setup_s":         median(agg.starts),
		"cold_batch_s":    median(agg.opening),
		"warm_batch_s":    median(agg.warm),
		"cells_per_s":     median(agg.rates),
		"peak_heap_bytes": peak,
	}), nil
}

// runSessions runs sessions first, first+1, ... until d has passed (at
// least two), with memos under memoRoot.
func runSessions(ctx context.Context, o options, universe [][]cellSpec, memoRoot string, first int, d time.Duration, tr *tracer) ([]*sessionOutcome, error) {
	var outs []*sessionOutcome
	start := time.Now()
	for s := first; s < first+2 || time.Since(start) < d; s++ {
		out, err := runSession(ctx, o, universe, memoRoot, s, tr)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// servedTotals aggregates sessions.
type servedTotals struct {
	t                               tally
	starts, opening, warm, rates    []float64 // rates: each session's cells per serving second
	cells                           float64
	hits, misses, deduped, distinct int64
	hitRatio                        float64
}

// aggregate folds sessions into totals, counting a run whose memo
// counters fail the hitRatio checks as one failed cell.
func aggregate(o options, outs []*sessionOutcome) servedTotals {
	var a servedTotals
	for _, out := range outs {
		a.starts = append(a.starts, out.starts...)
		a.hits += out.hits
		a.misses += out.misses
		a.deduped += out.deduped
		a.distinct += out.distinct
		var cells float64
		for _, b := range out.batches {
			cells += float64(b.cells)
			a.t.attempted += int64(b.cells)
			a.t.failed += int64(b.failed)
			if b.opening {
				a.opening = append(a.opening, b.seconds)
			} else {
				a.warm = append(a.warm, b.seconds)
			}
		}
		a.cells += cells
		a.rates = append(a.rates, cells/out.serving)
	}
	r, err := hitRatio(int64(a.cells), a.misses, a.distinct)
	a.hitRatio = r
	if err != nil {
		fmt.Fprintln(o.log, "perfbench: served_batch:", err)
		a.t.add(false)
	}
	return a
}

// traceServed is served_batch's traced run, in three equal phases:
// untraced sessions as the end-to-end run serves them, which give the
// overhead base and every figure of that traffic; traced sessions over
// the in-process memo, which give the server's own statistics; and traced
// sessions over a fresh memo directory each, which add the disk memo's
// reads and writes.
func traceServed(ctx context.Context, o options, universe [][]cellSpec) (*report, error) {
	memoRoot, err := filepath.Abs(filepath.Join(o.workdir, "memo"))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(memoRoot); err != nil {
		return nil, err
	}
	defer os.RemoveAll(memoRoot)
	tr := newTracer()
	values := zeroLayers()
	phase := o.seconds / 3

	gc := startGCWatch()
	allocs0 := readRuntime(heapAllocsMetric)[0]
	base, err := runSessions(ctx, o, universe, "", 0, phase, nil)
	if err != nil {
		return nil, err
	}
	ab := aggregate(o, base)
	values["bench.allocs_per_cell"] = (readRuntime(heapAllocsMetric)[0] - allocs0) / ab.cells
	values["runtime.gc_cpu_frac"] = gc.frac()
	values["bench.shard_arena_bytes"] = float64(bench.Shards().ArenaBytes)
	n := float64(len(base))
	values["bench.memo_hits"] = float64(ab.hits) / n
	values["bench.memo_misses"] = float64(ab.misses) / n
	values["bench.deduped"] = float64(ab.deduped) / n
	values["bench.resimulated"] = float64(ab.misses-ab.distinct) / n
	values["serve.hit_ratio"] = ab.hitRatio
	values["serve.batch_p99_s"] = quantile(ab.warm, 0.99)

	traced, err := runSessions(ctx, o, universe, "", len(base), phase, tr)
	if err != nil {
		return nil, err
	}
	disk, err := runSessions(ctx, o, universe, memoRoot, len(base)+len(traced), phase, tr)
	if err != nil {
		return nil, err
	}
	at, ad := aggregate(o, traced), aggregate(o, disk)
	var statsRate, cellP50, lruHits, serverMean []float64
	for _, out := range traced {
		var hits float64
		for _, st := range out.servers {
			statsRate = append(statsRate, st.Cache.HitRate)
			cellP50 = append(cellP50, st.CellLatency.P50Seconds)
			serverMean = append(serverMean, st.BatchLatency.MeanSeconds)
			hits += float64(st.Cache.LRUHits)
		}
		lruHits = append(lruHits, hits)
	}
	values["serve.stats_hit_rate"] = median(statsRate)
	values["serve.cell_p50_s"] = median(cellP50)
	values["serve.lru_hits"] = median(lruHits)
	// The server's histograms keep log2 buckets, so the overhead compares
	// means: the client's mean batch time less the server's.
	values["serve.http_overhead_s"] = (sum(at.opening)+sum(at.warm))/float64(len(at.opening)+len(at.warm)) - median(serverMean)
	values["bench.disk_memo_s_per_miss"] = (1/median(ad.rates) - 1/median(at.rates)) * at.cells / float64(at.misses)
	values["trace.overhead_frac"] = median(ab.rates)/median(at.rates) - 1
	if err := tr.write(filepath.Join(o.workdir, "trace", fmt.Sprintf("served_batch-%d.json", o.seed))); err != nil {
		return nil, err
	}
	all := ab.t
	all.attempted += at.t.attempted + ad.t.attempted
	all.failed += at.t.failed + ad.t.failed
	return newReport(all, perLayer, values), nil
}
