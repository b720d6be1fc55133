package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// LoadOptions drives one load-test run against a live simd server.
type LoadOptions struct {
	// BaseURL of the server, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Request is the batch posted by every client on every repetition.
	Request BatchRequest
	// Concurrency is the number of concurrent clients (default 4).
	Concurrency int
	// Repetitions per client (default 4).
	Repetitions int
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
}

// LoadReport summarises a load-test run. Quantiles are exact (computed
// from every request's wall time, not bucketed).
type LoadReport struct {
	Requests    int     `json:"requests"`
	Cells       int     `json:"cells"` // cells served across all requests
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	// HitRate is the server-side cache hit rate over this run's window:
	// the fraction of served cells answered without a fresh simulation —
	// from the runner memo's memory or disk layer, or a singleflight wait.
	HitRate float64 `json:"hit_rate"`
	// Body is the byte-identical response body every request returned.
	Body []byte `json:"-"`
}

// Load posts the same batch from Concurrency clients × Repetitions each
// and fails unless every response is byte-identical — the service's
// determinism contract, checked under real concurrency. The report's
// latency quantiles are client-observed request times; the hit rate is
// read from /v1/stats deltas around the run.
func Load(ctx context.Context, opts LoadOptions) (*LoadReport, error) {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 4
	}
	if opts.Repetitions <= 0 {
		opts.Repetitions = 4
	}
	client := opts.Client
	if client == nil {
		client = http.DefaultClient
	}
	body, err := json.Marshal(&opts.Request)
	if err != nil {
		return nil, err
	}

	before, err := fetchStats(ctx, client, opts.BaseURL)
	if err != nil {
		return nil, err
	}

	total := opts.Concurrency * opts.Repetitions
	durs := make([]time.Duration, total)
	bodies := make([][]byte, total)
	errs := make([]error, total)
	var wg sync.WaitGroup
	for c := 0; c < opts.Concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < opts.Repetitions; r++ {
				i := c*opts.Repetitions + r
				t0 := time.Now()
				bodies[i], errs[i] = postCells(ctx, client, opts.BaseURL, body)
				durs[i] = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("request %d: %v", i, err)
		}
	}
	for i := 1; i < total; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			return nil, fmt.Errorf("determinism violation: response %d differs from response 0:\n%s\nvs\n%s",
				i, bodies[i], bodies[0])
		}
	}

	after, err := fetchStats(ctx, client, opts.BaseURL)
	if err != nil {
		return nil, err
	}

	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	rep := &LoadReport{
		Requests:    total,
		Cells:       total * len(opts.Request.Cells),
		MeanSeconds: (sum / time.Duration(total)).Seconds(),
		P50Seconds:  quantileDur(durs, 0.50).Seconds(),
		P99Seconds:  quantileDur(durs, 0.99).Seconds(),
		Body:        bodies[0],
	}
	served := after.CellLatency.Count - before.CellLatency.Count
	simmed := after.SimLatency.Count - before.SimLatency.Count
	memoHits := after.Cache.SimHits - before.Cache.SimHits
	if served > 0 {
		rep.HitRate = float64(served-simmed+memoHits) / float64(served)
	}
	return rep, nil
}

// quantileDur returns the q-quantile of a sorted duration slice using the
// nearest-rank method.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

func postCells(ctx context.Context, client *http.Client, base string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func fetchStats(ctx context.Context, client *http.Client, base string) (*StatsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("stats: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	st := &StatsResponse{}
	if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
		return nil, fmt.Errorf("stats: %v", err)
	}
	return st, nil
}
