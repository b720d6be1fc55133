// Command simd serves the deterministic sweep-and-tune engine over
// HTTP/JSON: batch cell evaluation (POST /v1/cells), streamed sweeps
// (POST /v1/sweep), tuned-decision lookups (GET /v1/decisions), and live
// cache/latency statistics (GET /v1/stats). Cells are cached only by the
// run memo (-cache-dir, -no-cache): in memory for the process's life and
// on disk across restarts. Responses are deterministic — the same batch
// yields byte-identical bodies whether cells are simulated, deduplicated
// against in-flight twins, or replayed from the memo, at any request
// concurrency.
//
// Usage:
//
//	simd -addr :8080                          # serve until SIGTERM
//	simd -addr :8080 -cache-dir /srv/simcache # keep the memo across restarts
//	simd -decisions ig.json -machines big.machine -addr :8080
//	simd -smoke                               # boot, verify, exit
//	simd -selftest -concurrency 8 -reps 4     # load-test, then assert a warm restart
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/topology"
	"repro/internal/tune"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simd:", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	noCache := flag.Bool("no-cache", false, "disable run memoization: re-simulate every cell")
	cacheDir := flag.String("cache-dir", "", "persistent simulation cache directory (default: the user cache dir)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrently simulating cells")
	decisionsPath := flag.String("decisions", "", "comma-separated tuned decision tables (JSON from `tune search`) applied to matching machines")
	machinesPath := flag.String("machines", "", "comma-separated machine-description files served in addition to the built-in platforms")
	smoke := flag.Bool("smoke", false, "boot on a random port, verify determinism and cache behaviour, print the smoke panel, exit")
	selftest := flag.Bool("selftest", false, "boot on a random port, run the load-test harness, print its report as JSON, assert a restart on a fresh runner replays every cell from the disk memo, exit")
	concurrency := flag.Int("concurrency", 8, "selftest: concurrent clients")
	reps := flag.Int("reps", 4, "selftest: batches per client")
	flag.Parse()

	set := tune.NewSet()
	for _, p := range splitNonEmpty(*decisionsPath) {
		t, err := tune.Load(p, nil)
		if err != nil {
			fatal(err)
		}
		set.Add(t)
	}
	// newRunner builds a runner on the flags' memo and decision tables. The
	// selftest restarts its server on a fresh one over the same cache
	// directory.
	newRunner := func() (*bench.Runner, bool) {
		run := bench.NewRunner()
		cached, err := run.EnableDefaultCache("simd", *noCache, *cacheDir)
		if err != nil {
			fatal(err)
		}
		run.SetDecisions(set)
		return run, cached
	}
	run, cached := newRunner()

	opts := serve.Options{Runner: run, Workers: *parallel}

	extra := map[string]*topology.Machine{}
	for _, p := range splitNonEmpty(*machinesPath) {
		m, err := topology.LoadMachine(p)
		if err != nil {
			fatal(err)
		}
		extra[m.Name] = m
	}
	opts.Machines = func(name string) *topology.Machine {
		if m, ok := extra[name]; ok {
			return m
		}
		return topology.ByName(name)
	}

	switch {
	case *smoke:
		if err := runSmoke(opts); err != nil {
			fatal(err)
		}
	case *selftest:
		fresh := func() *bench.Runner { r, _ := newRunner(); return r }
		if err := runSelftest(opts, fresh, *concurrency, *reps); err != nil {
			fatal(err)
		}
	default:
		if err := serveUntilSignal(*addr, opts, cached); err != nil {
			fatal(err)
		}
	}
}

func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// serveUntilSignal runs the daemon until SIGINT/SIGTERM, then drains:
// in-flight requests get up to 30s to finish before the listener dies.
func serveUntilSignal(addr string, opts serve.Options, cached bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Addr: addr, Handler: serve.New(opts).Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "simd: serving on %s (cache %s)\n", addr, onOff(cached))

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "simd: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if cached {
		opts.Runner.ReportCacheCounts("simd")
	}
	return nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// bootLocal starts a server on a random loopback port and returns its
// base URL and a shutdown func.
func bootLocal(opts serve.Options) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: serve.New(opts).Handler()}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// smokeSizes and smokeComps define the smoke batch — it must mirror
// `imb -op bcast -machine Zoot -sizes 64K,1M -iters 1 -comps
// KNEM-Coll,Tuned-SM` cell for cell (imb sweeps with OffCache on), so the
// rendered panel can be byte-compared against imb's stdout.
var (
	smokeSizes = []int64{64 * bench.KiB, 1 * bench.MiB}
	smokeComps = []string{"KNEM-Coll", "Tuned-SM"}
)

func smokeBatch() serve.BatchRequest {
	req := serve.BatchRequest{Machine: "Zoot"}
	for _, comp := range smokeComps {
		for _, sz := range smokeSizes {
			req.Cells = append(req.Cells, serve.CellSpec{
				Comp: comp, Op: "bcast", Size: sz, Iters: 1, OffCache: true,
			})
		}
	}
	return req
}

// runSmoke boots a throwaway server and verifies the service contract end
// to end: byte-identical responses under concurrency, a fully cache-served
// second round, and library-identical results — the smoke panel printed to
// stdout must byte-match `imb` on the same cells. Diagnostics go to
// stderr; stdout carries only the panel.
func runSmoke(opts serve.Options) error {
	base, shutdown, err := bootLocal(opts)
	if err != nil {
		return err
	}
	defer shutdown()
	ctx := context.Background()

	cold, err := serve.Load(ctx, serve.LoadOptions{BaseURL: base, Request: smokeBatch(), Concurrency: 4, Repetitions: 2})
	if err != nil {
		return fmt.Errorf("smoke cold round: %v", err)
	}
	fmt.Fprintf(os.Stderr, "simd: smoke cold round: %d requests byte-identical, hit rate %.2f\n", cold.Requests, cold.HitRate)

	warm, err := serve.Load(ctx, serve.LoadOptions{BaseURL: base, Request: smokeBatch(), Concurrency: 4, Repetitions: 2})
	if err != nil {
		return fmt.Errorf("smoke warm round: %v", err)
	}
	if string(warm.Body) != string(cold.Body) {
		return fmt.Errorf("smoke: warm response differs from cold response")
	}
	if warm.HitRate != 1.0 {
		return fmt.Errorf("smoke: warm round hit rate %v, want 1.0 (cache-served)", warm.HitRate)
	}
	fmt.Fprintf(os.Stderr, "simd: smoke warm round: 100%% cache-served, p50 %.6fs p99 %.6fs\n", warm.P50Seconds, warm.P99Seconds)

	var resp serve.BatchResponse
	if err := json.Unmarshal(cold.Body, &resp); err != nil {
		return err
	}
	panel := bench.Panel{
		Title:    fmt.Sprintf("bcast on Zoot (np=%d)", topology.ByName("Zoot").NCores()),
		Machine:  "Zoot",
		Baseline: "KNEM-Coll",
		Sizes:    smokeSizes,
	}
	for i, comp := range smokeComps {
		s := bench.Series{Label: comp, Seconds: map[int64]float64{}}
		for j, sz := range smokeSizes {
			s.Seconds[sz] = resp.Results[i*len(smokeSizes)+j].Seconds
		}
		panel.Series = append(panel.Series, s)
	}
	panel.Render(os.Stdout)
	return nil
}

// runSelftest boots a throwaway server, drives the load harness against
// it, and prints the report as JSON. It then exercises the warm-restart
// path: a second server on a fresh runner (fresh) starts with an empty
// in-memory memo over the same cache directory, so it must answer the
// same batch byte-identically from the disk memo — no simulation at all.
func runSelftest(opts serve.Options, fresh func() *bench.Runner, concurrency, reps int) error {
	base, shutdown, err := bootLocal(opts)
	if err != nil {
		return err
	}
	defer shutdown()
	ctx := context.Background()
	rep, err := serve.Load(ctx, serve.LoadOptions{
		BaseURL: base, Request: smokeBatch(), Concurrency: concurrency, Repetitions: reps,
	})
	if err != nil {
		return err
	}
	shutdown()

	opts.Runner = fresh()
	base2, shutdown2, err := bootLocal(opts)
	if err != nil {
		return err
	}
	defer shutdown2()
	warm, err := serve.Load(ctx, serve.LoadOptions{
		BaseURL: base2, Request: smokeBatch(), Concurrency: concurrency, Repetitions: 1,
	})
	if err != nil {
		return fmt.Errorf("selftest warm restart: %v", err)
	}
	if string(warm.Body) != string(rep.Body) {
		return fmt.Errorf("selftest: restarted server's response differs from the first server's")
	}
	if warm.HitRate != 1.0 {
		return fmt.Errorf("selftest: restart hit rate %v, want 1.0 (the disk memo must serve the whole batch)", warm.HitRate)
	}
	if misses := simMisses(base2); misses != 0 {
		return fmt.Errorf("selftest: restarted server took %d sim misses, want 0", misses)
	}
	fmt.Fprintln(os.Stderr, "simd: warm restart from the disk memo: hit rate 1.00, 0 sim misses")

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// simMisses fetches the server's memo miss counter (-1 on error: the
// caller treats any failure to read stats as an assertion failure).
func simMisses(base string) int64 {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return -1
	}
	return st.Cache.SimMisses
}
