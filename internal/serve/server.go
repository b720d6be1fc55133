// Package serve turns the deterministic sweep-and-tune library into a
// long-running HTTP/JSON service: batch cell evaluation over the pooled
// measurement runner, streamed sweeps, tuned-decision lookups, and live
// cache/latency statistics.
//
// The serving stack, top to bottom:
//
//	handler → singleflight (bench) → bounded sharded LRU (store) →
//	persistent disk shards (bench memo) → pooled engine shards (runner)
//
// and the determinism contract is per request: the response body of
// POST /v1/cells is a pure function of the request — same machine, cells,
// and installed decision tables produce byte-identical bodies whether the
// cells are simulated, deduplicated against an identical in-flight
// request, served from the LRU, or replayed from disk, at any concurrency.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/topology"
	"repro/internal/tune"
)

// Options configures a Server.
type Options struct {
	// Machines resolves a request's machine name. Nil means the built-in
	// evaluation platforms only (topology.ByName) — requests can never
	// reach the filesystem. The server resolves each name once and reuses
	// the machine, so every cell on it shares one memory-system net per
	// measurement shard.
	Machines func(name string) *topology.Machine
	// Runner measures the server's cells: its memo, decision set (which
	// backs GET /v1/decisions and steers cells exactly like imb
	// -decisions), counters and shard pool. Nil means bench.Default.
	Runner *bench.Runner
	// LRUSize bounds the in-memory serving cache, in cells (default 4096).
	LRUSize int
	// Workers caps concurrently simulating cells server-wide (default
	// GOMAXPROCS): batches saturate the cores through the shard pool while
	// cache hits bypass the limit entirely.
	Workers int
	// MaxCells bounds the cells of one batch/sweep request (default 4096).
	MaxCells int
}

// Server is the sweep-and-tune daemon's handler state. Construct with New;
// serve via Handler.
type Server struct {
	opts  Options
	store *store
	mux   *http.ServeMux
	sem   chan struct{}
	start time.Time

	inflight atomic.Int64 // cells currently being evaluated
	batches  atomic.Int64
	sweeps   atomic.Int64
	lookups  atomic.Int64

	histBatch hist // whole POST /v1/cells requests
	histCell  hist // every served cell (hits and simulations alike)
	histSim   hist // cells that reached the runner (LRU misses)
}

// memoMachines wraps resolve so each name is built once. Only known names
// are cached, so requests naming unknown machines cannot grow the table.
func memoMachines(resolve func(string) *topology.Machine) func(string) *topology.Machine {
	var mu sync.Mutex
	byName := map[string]*topology.Machine{}
	return func(name string) *topology.Machine {
		mu.Lock()
		m, ok := byName[name]
		mu.Unlock()
		if ok {
			return m
		}
		if m = resolve(name); m == nil {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		// A concurrent first request may have won; keep its machine so
		// every cell shares one pointer.
		if prev, ok := byName[name]; ok {
			return prev
		}
		byName[name] = m
		return m
	}
}

// New builds a Server.
func New(opts Options) *Server {
	if opts.Runner == nil {
		opts.Runner = bench.Default
	}
	if opts.Machines == nil {
		opts.Machines = topology.ByName
	}
	opts.Machines = memoMachines(opts.Machines)
	if opts.LRUSize <= 0 {
		opts.LRUSize = 4096
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxCells <= 0 {
		opts.MaxCells = 4096
	}
	s := &Server{
		opts:  opts,
		store: newStore(opts.LRUSize),
		sem:   make(chan struct{}, opts.Workers),
		start: time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/cells", s.handleCells)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/decisions", s.handleDecisions)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// Handler returns the HTTP handler serving the /v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// WarmEntry is one persisted serving-cache cell: the content-addressed
// cell key and its simulated seconds. A daemon dumps its hot set as warm
// entries on drain and preloads them on the next boot, so a restart
// starts with yesterday's working set already resident instead of paying
// a cold LRU.
type WarmEntry struct {
	Key     string  `json:"key"`
	Seconds float64 `json:"seconds"`
}

// WarmSnapshot returns the serving cache's resident entries, sorted by
// key (so dumps of the same hot set are byte-identical).
func (s *Server) WarmSnapshot() []WarmEntry { return s.store.snapshot() }

// WarmPreload seeds the serving cache from a previous run's snapshot and
// reports how many entries were loaded. Entries are inserted in order, so
// if the snapshot exceeds the cache's capacity the later (higher-keyed)
// entries win. Determinism is unaffected: a warm entry holds exactly the
// seconds the simulator would recompute for its key.
func (s *Server) WarmPreload(entries []WarmEntry) int {
	for _, e := range entries {
		s.store.put(e.Key, e.Seconds)
	}
	return len(entries)
}

// CellSpec is one requested measurement cell. Zero NP and Iters take the
// measurement harness defaults (all cores, 3 iterations); responses echo
// the effective values so identical work is always described identically.
type CellSpec struct {
	Comp     string `json:"comp"`
	Op       string `json:"op"`
	Size     int64  `json:"size"`
	NP       int    `json:"np,omitempty"`
	Iters    int    `json:"iters,omitempty"`
	OffCache bool   `json:"offcache,omitempty"`
	Root     int    `json:"root,omitempty"`
}

// BatchRequest is the body of POST /v1/cells and POST /v1/sweep.
type BatchRequest struct {
	Machine string     `json:"machine"`
	Cells   []CellSpec `json:"cells"`
}

// CellResult is one evaluated cell: the effective spec plus its simulated
// time. Deliberately no served-from-where annotation — the body must be
// byte-identical however the cell was obtained.
type CellResult struct {
	Comp     string  `json:"comp"`
	Op       string  `json:"op"`
	Size     int64   `json:"size"`
	NP       int     `json:"np"`
	Iters    int     `json:"iters"`
	OffCache bool    `json:"offcache"`
	Root     int     `json:"root"`
	Seconds  float64 `json:"seconds"`
}

// BatchResponse is the body of POST /v1/cells.
type BatchResponse struct {
	Machine string       `json:"machine"`
	Cells   int          `json:"cells"`
	Results []CellResult `json:"results"`
}

// SweepLine is one NDJSON line of POST /v1/sweep: a cell result tagged
// with its request index. Lines stream in completion order (which may vary
// run to run); each line's content is deterministic, and sorting by i
// reconstructs the batch response's result order.
type SweepLine struct {
	I int `json:"i"`
	CellResult
}

// DecisionResponse is the body of GET /v1/decisions.
type DecisionResponse struct {
	Machine string     `json:"machine"`
	Op      string     `json:"op"`
	NP      int        `json:"np"`
	Size    int64      `json:"size"`
	Found   bool       `json:"found"`
	Cell    *tune.Cell `json:"cell,omitempty"`
}

// CacheStats is the layered cache picture in GET /v1/stats.
type CacheStats struct {
	LRUHits    int64   `json:"lru_hits"`
	LRUMisses  int64   `json:"lru_misses"`
	LRULen     int     `json:"lru_len"`
	LRUCap     int     `json:"lru_cap"`
	HitRate    float64 `json:"hit_rate"` // LRU + memo hits over all cells
	SimHits    int64   `json:"sim_hits"` // the runner's memo layer (memory + disk)
	SimMisses  int64   `json:"sim_misses"`
	SimDeduped int64   `json:"sim_deduped"` // singleflight waits
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64    `json:"uptime_seconds"`
	InFlight      int64      `json:"inflight_cells"`
	Batches       int64      `json:"batch_requests"`
	Sweeps        int64      `json:"sweep_requests"`
	Decisions     int64      `json:"decision_requests"`
	Cache         CacheStats `json:"cache"`
	// Shards is the measurement-shard pool's high-water footprint (arena
	// bytes and slab counts) — the resident cost a warm simulation worker
	// holds between cells.
	Shards       bench.ShardStats `json:"shards"`
	BatchLatency HistStats        `json:"batch_latency"`
	CellLatency  HistStats        `json:"cell_latency"`
	SimLatency   HistStats        `json:"sim_latency"`
}

// compsByName is the closed set of components a request may name.
func compsByName() map[string]bench.Comp {
	all := append(bench.PaperComponents(), bench.BasicSM(), bench.SMColl())
	m := make(map[string]bench.Comp, len(all))
	for _, c := range all {
		m[strings.ToLower(c.Name)] = c
	}
	return m
}

var validOps = map[bench.Op]bool{
	bench.OpBcast: true, bench.OpGather: true, bench.OpScatter: true,
	bench.OpAllgather: true, bench.OpAlltoall: true, bench.OpAlltoallv: true,
	bench.OpBarrier: true, bench.OpPingPong: true,
}

// cellConfigs validates one batch request and compiles it into measurement
// configs plus the echoed effective specs. Every problem is a one-line
// 400-class error naming the offending cell.
func (s *Server) cellConfigs(req *BatchRequest) (*topology.Machine, []bench.Config, []CellResult, error) {
	if req.Machine == "" {
		return nil, nil, nil, fmt.Errorf("no machine")
	}
	m := s.opts.Machines(req.Machine)
	if m == nil {
		return nil, nil, nil, fmt.Errorf("unknown machine %q", req.Machine)
	}
	if len(req.Cells) == 0 {
		return nil, nil, nil, fmt.Errorf("no cells")
	}
	if len(req.Cells) > s.opts.MaxCells {
		return nil, nil, nil, fmt.Errorf("%d cells exceeds the per-request limit of %d", len(req.Cells), s.opts.MaxCells)
	}
	comps := compsByName()
	cfgs := make([]bench.Config, len(req.Cells))
	echo := make([]CellResult, len(req.Cells))
	for i, c := range req.Cells {
		comp, ok := comps[strings.ToLower(c.Comp)]
		if !ok {
			return nil, nil, nil, fmt.Errorf("cell %d: unknown component %q", i, c.Comp)
		}
		if !validOps[bench.Op(c.Op)] {
			return nil, nil, nil, fmt.Errorf("cell %d: unknown op %q", i, c.Op)
		}
		if c.Size < 0 {
			return nil, nil, nil, fmt.Errorf("cell %d: negative size %d", i, c.Size)
		}
		np := c.NP
		if np == 0 {
			np = m.NCores()
		}
		if np < 1 || np > m.NCores() {
			return nil, nil, nil, fmt.Errorf("cell %d: np %d out of range for %d cores", i, np, m.NCores())
		}
		iters := c.Iters
		if iters == 0 {
			iters = 3
		}
		if iters < 1 {
			return nil, nil, nil, fmt.Errorf("cell %d: iters %d out of range", i, c.Iters)
		}
		if c.Root < 0 || c.Root >= np {
			return nil, nil, nil, fmt.Errorf("cell %d: root %d out of range for np %d", i, c.Root, np)
		}
		cfgs[i] = bench.Config{
			Machine: m, NP: np, Comp: comp, Op: bench.Op(c.Op), Size: c.Size,
			Iters: iters, OffCache: c.OffCache, Root: c.Root,
		}
		echo[i] = CellResult{
			Comp: comp.Name, Op: c.Op, Size: c.Size, NP: np, Iters: iters,
			OffCache: c.OffCache, Root: c.Root,
		}
	}
	return m, cfgs, echo, nil
}

// layerTimes sums, over the cells of one batch, the wall time each layer
// of the serving stack spent on them: building cache keys, the LRU, and
// the runner (MeasureCtx: memo, singleflight, simulation). POST /v1/cells
// reports it as its Server-Timing header, so a slow batch can be
// attributed to a layer from the response alone.
type layerTimes struct {
	key, lru, run atomic.Int64 // nanoseconds
}

// serverTiming renders t as a Server-Timing header value, in ms.
func (t *layerTimes) serverTiming() string {
	ms := func(ns *atomic.Int64) string {
		return strconv.FormatFloat(float64(ns.Load())/1e6, 'f', -1, 64)
	}
	return "key;dur=" + ms(&t.key) + ", lru;dur=" + ms(&t.lru) + ", run;dur=" + ms(&t.run)
}

// evalCell serves one cell through the layered caches, recording latency,
// in-flight accounting and the batch's per-layer times.
func (s *Server) evalCell(ctx context.Context, cfg bench.Config, lt *layerTimes) (float64, error) {
	t0 := time.Now()
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.histCell.observe(time.Since(t0))
	}()
	key, keyed := s.opts.Runner.CellKey(cfg)
	tLRU := time.Now()
	lt.key.Add(int64(tLRU.Sub(t0)))
	if keyed {
		secs, ok := s.store.get(key)
		lt.lru.Add(int64(time.Since(tLRU)))
		if ok {
			return secs, nil
		}
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	tSim := time.Now()
	res, err := s.opts.Runner.MeasureCtx(ctx, cfg)
	<-s.sem
	dSim := time.Since(tSim)
	s.histSim.observe(dSim)
	lt.run.Add(int64(dSim))
	if err != nil {
		return 0, err
	}
	if keyed {
		tPut := time.Now()
		s.store.put(key, res.Seconds)
		lt.lru.Add(int64(time.Since(tPut)))
	}
	return res.Seconds, nil
}

// evalAll evaluates every cell concurrently (bounded by the worker
// semaphore), delivering each completed result to done(i, result) and
// returning the lowest-indexed error, if any. done is called from many
// goroutines; the batch handler writes into a slot array, the sweep
// handler serializes through a channel.
func (s *Server) evalAll(ctx context.Context, cfgs []bench.Config, echo []CellResult, lt *layerTimes, done func(i int, r CellResult)) error {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		errAt  = -1
		errVal error
	)
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			secs, err := s.evalCell(ctx, cfgs[i], lt)
			if err != nil {
				mu.Lock()
				if errAt < 0 || i < errAt {
					errAt, errVal = i, err
				}
				mu.Unlock()
				return
			}
			r := echo[i]
			r.Seconds = secs
			done(i, r)
		}(i)
	}
	wg.Wait()
	return errVal
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf("simd: "+format, args...), code)
}

func (s *Server) decodeBatch(w http.ResponseWriter, r *http.Request) (*BatchRequest, []bench.Config, []CellResult, bool) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	req := &BatchRequest{}
	if err := dec.Decode(req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, nil, nil, false
	}
	_, cfgs, echo, err := s.cellConfigs(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, nil, false
	}
	return req, cfgs, echo, true
}

// handleCells is POST /v1/cells: evaluate the batch, respond with results
// in request order — byte-deterministic for a given request and decision
// state.
func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.batches.Add(1)
	req, cfgs, echo, ok := s.decodeBatch(w, r)
	if !ok {
		return
	}
	results := make([]CellResult, len(cfgs))
	var lt layerTimes
	err := s.evalAll(r.Context(), cfgs, echo, &lt, func(i int, res CellResult) {
		results[i] = res
	})
	if err != nil {
		if r.Context().Err() != nil {
			return // client is gone; nothing to write
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body, err := json.Marshal(&BatchResponse{Machine: req.Machine, Cells: len(results), Results: results})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Server-Timing", lt.serverTiming())
	w.Write(append(body, '\n'))
	s.histBatch.observe(time.Since(t0))
}

// handleSweep is POST /v1/sweep: the same batch, streamed as NDJSON with
// one line per cell as it completes plus a final done line. Line contents
// are deterministic; line order is completion order.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.sweeps.Add(1)
	_, cfgs, echo, ok := s.decodeBatch(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	lines := make(chan SweepLine, len(cfgs))
	evalErr := make(chan error, 1)
	go func() {
		evalErr <- s.evalAll(r.Context(), cfgs, echo, &layerTimes{}, func(i int, res CellResult) {
			lines <- SweepLine{I: i, CellResult: res}
		})
		close(lines)
	}()
	enc := json.NewEncoder(w)
	n := 0
	for line := range lines {
		if enc.Encode(&line) != nil {
			// Client went away; drain so the evaluators finish cancelling.
			continue
		}
		n++
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := <-evalErr; err != nil {
		// Mid-stream failure: headers are long gone, so report in-band.
		enc.Encode(map[string]string{"error": err.Error()})
		return
	}
	enc.Encode(map[string]int{"done": n})
}

// handleDecisions is GET /v1/decisions: a tune-table lookup for
// ?machine=&op=&np=&size= through the same nearest-cell interpolation the
// runtime components use.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	s.lookups.Add(1)
	q := r.URL.Query()
	name, op := q.Get("machine"), q.Get("op")
	if name == "" || op == "" {
		httpError(w, http.StatusBadRequest, "machine and op query parameters are required")
		return
	}
	m := s.opts.Machines(name)
	if m == nil {
		httpError(w, http.StatusBadRequest, "unknown machine %q", name)
		return
	}
	np := m.NCores()
	if v := q.Get("np"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad np %q", v)
			return
		}
		np = n
	}
	var size int64
	if v := q.Get("size"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad size %q", v)
			return
		}
		size = n
	}
	resp := DecisionResponse{Machine: m.Name, Op: op, NP: np, Size: size}
	if d := s.opts.Runner.Decisions().For(m); d != nil {
		if cell, ok := d.Lookup(op, np, size); ok {
			resp.Found, resp.Cell = true, &cell
		}
	}
	writeJSON(w, &resp)
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	lruHits, lruMisses := s.store.counts()
	simHits, simMisses := s.opts.Runner.CacheCounts()
	cells := s.histCell.total.Load()
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      s.inflight.Load(),
		Batches:       s.batches.Load(),
		Sweeps:        s.sweeps.Load(),
		Decisions:     s.lookups.Load(),
		Cache: CacheStats{
			LRUHits: lruHits, LRUMisses: lruMisses,
			LRULen: s.store.len(), LRUCap: s.opts.LRUSize,
			SimHits: simHits, SimMisses: simMisses, SimDeduped: s.opts.Runner.DedupedCount(),
		},
		Shards:       s.opts.Runner.Shards(),
		BatchLatency: s.histBatch.stats(),
		CellLatency:  s.histCell.stats(),
		SimLatency:   s.histSim.stats(),
	}
	if cells > 0 {
		resp.Cache.HitRate = float64(cells-s.histSim.total.Load()+simHits) / float64(cells)
	}
	writeJSON(w, &resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
