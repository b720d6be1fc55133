package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/topology"
	"repro/internal/tune"
)

// testBatch is a small mixed batch: cheap cells, two components, defaults
// exercised (np/iters omitted on one cell).
func testBatch() BatchRequest {
	return BatchRequest{
		Machine: "Zoot",
		Cells: []CellSpec{
			{Comp: "KNEM-Coll", Op: "bcast", Size: 4096, NP: 4, Iters: 1},
			{Comp: "Tuned-SM", Op: "bcast", Size: 4096, NP: 4, Iters: 1},
			{Comp: "KNEM-Coll", Op: "gather", Size: 1024, NP: 4, Iters: 1},
			{Comp: "KNEM-Coll", Op: "barrier", Size: 0, NP: 4, Iters: 1},
		},
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestBatchDeterministicAcrossConcurrency is the tentpole contract: the
// same batch posted from many concurrent clients, twice over, yields
// byte-identical bodies every time, and the second round is served
// entirely from cache (no cell reaches the simulation runner).
func TestBatchDeterministicAcrossConcurrency(t *testing.T) {
	if err := bench.EnableCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer bench.DisableCache()
	s, ts := newTestServer(t, Options{})

	ctx := context.Background()
	first, err := Load(ctx, LoadOptions{BaseURL: ts.URL, Request: testBatch(), Concurrency: 6, Repetitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	simsAfterFirst := s.histSim.total.Load()
	if simsAfterFirst < int64(len(testBatch().Cells)) {
		t.Fatalf("first round simulated %d cells, want >= %d", simsAfterFirst, len(testBatch().Cells))
	}

	second, err := Load(ctx, LoadOptions{BaseURL: ts.URL, Request: testBatch(), Concurrency: 6, Repetitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Body, second.Body) {
		t.Fatalf("cached round not byte-identical to cold round:\n%s\nvs\n%s", second.Body, first.Body)
	}
	if second.HitRate != 1.0 {
		t.Fatalf("second round hit rate %v, want 1.0", second.HitRate)
	}
	if got := s.histSim.total.Load(); got != simsAfterFirst {
		t.Fatalf("second round reached the runner: %d sims, want %d", got, simsAfterFirst)
	}

	// Response echoes effective defaults and carries no cache annotations.
	var resp BatchResponse
	if err := json.Unmarshal(first.Body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cells != 4 || len(resp.Results) != 4 {
		t.Fatalf("batch shape: %d cells, %d results", resp.Cells, len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.NP != 4 || r.Iters != 1 || r.Seconds <= 0 {
			t.Fatalf("result %d not echoed/filled: %+v", i, r)
		}
	}
	if bytes.Contains(first.Body, []byte("cached")) || bytes.Contains(first.Body, []byte("hit")) {
		t.Fatalf("response body leaks cache state: %s", first.Body)
	}
}

// TestBatchMatchesMeasure pins the serving path to the library: every
// served seconds value equals a direct bench.Measure of the same cell.
func TestBatchMatchesMeasure(t *testing.T) {
	bench.DisableCache()
	_, ts := newTestServer(t, Options{})
	body, err := postCells(context.Background(), http.DefaultClient, ts.URL, mustJSON(t, testBatch()))
	if err != nil {
		t.Fatal(err)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	m := topology.ByName("Zoot")
	comps := compsByName()
	for i, c := range testBatch().Cells {
		want := bench.MustMeasure(bench.Config{
			Machine: m, NP: c.NP, Comp: comps[strings.ToLower(c.Comp)],
			Op: bench.Op(c.Op), Size: c.Size, Iters: c.Iters,
		})
		if resp.Results[i].Seconds != want.Seconds {
			t.Fatalf("cell %d: served %v, measured %v", i, resp.Results[i].Seconds, want.Seconds)
		}
	}
}

// TestSweepStreams checks POST /v1/sweep: one NDJSON line per cell (any
// order, deterministic contents matching the batch endpoint) plus a final
// done line.
func TestSweepStreams(t *testing.T) {
	bench.DisableCache()
	_, ts := newTestServer(t, Options{})
	req := testBatch()

	batchBody, err := postCells(context.Background(), http.DefaultClient, ts.URL, mustJSON(t, req))
	if err != nil {
		t.Fatal(err)
	}
	var batch BatchResponse
	if err := json.Unmarshal(batchBody, &batch); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("sweep content type %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	got := map[int]CellResult{}
	var done struct {
		Done *int `json:"done"`
	}
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		if json.Unmarshal(raw, &done) == nil && done.Done != nil {
			break
		}
		var line SweepLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatal(err)
		}
		got[line.I] = line.CellResult
	}
	if *done.Done != len(req.Cells) || len(got) != len(req.Cells) {
		t.Fatalf("sweep streamed %d lines, done=%d, want %d", len(got), *done.Done, len(req.Cells))
	}
	for i, want := range batch.Results {
		if got[i] != want {
			t.Fatalf("sweep line %d = %+v, batch says %+v", i, got[i], want)
		}
	}
}

// TestDecisionsEndpoint exercises GET /v1/decisions against an installed
// table: tuned machines answer with the resolved cell, untuned ones with
// found=false.
func TestDecisionsEndpoint(t *testing.T) {
	m := topology.ByName("IG")
	table := &tune.Table{Version: tune.TableVersion, Machine: m.Name, Fingerprint: tune.Fingerprint(m)}
	table.Cells = append(table.Cells, tune.Cell{
		Op: tune.OpBcast, NP: 48, Size: 64 << 10,
		Choice: tune.Choice{Comp: "KNEM-Coll", Seg: 32 << 10}, Seconds: 1e-4,
	})
	table.Sort()
	set := tune.NewSet()
	set.Add(table)
	_, ts := newTestServer(t, Options{Decisions: set})

	var resp DecisionResponse
	getJSON(t, ts.URL+"/v1/decisions?machine=IG&op=bcast&np=48&size=65536", &resp)
	if !resp.Found || resp.Cell == nil || resp.Cell.Choice.Comp != "KNEM-Coll" {
		t.Fatalf("tuned lookup: %+v", resp)
	}
	resp = DecisionResponse{}
	getJSON(t, ts.URL+"/v1/decisions?machine=Zoot&op=bcast&size=65536", &resp)
	if resp.Found || resp.Cell != nil {
		t.Fatalf("untuned machine claims a decision: %+v", resp)
	}
	if resp.NP != topology.ByName("Zoot").NCores() {
		t.Fatalf("np default = %d, want core count", resp.NP)
	}
}

// TestValidation: every malformed request is a one-line 400 naming the
// problem; nothing reaches the runner.
func TestValidation(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxCells: 8})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"empty body", `{}`, "no machine"},
		{"unknown machine", `{"machine":"Cray-1","cells":[{"comp":"KNEM-Coll","op":"bcast","size":1}]}`, `unknown machine "Cray-1"`},
		{"no cells", `{"machine":"Zoot","cells":[]}`, "no cells"},
		{"unknown comp", `{"machine":"Zoot","cells":[{"comp":"FTL","op":"bcast","size":1}]}`, `cell 0: unknown component "FTL"`},
		{"unknown op", `{"machine":"Zoot","cells":[{"comp":"KNEM-Coll","op":"warp","size":1}]}`, `cell 0: unknown op "warp"`},
		{"negative size", `{"machine":"Zoot","cells":[{"comp":"KNEM-Coll","op":"bcast","size":-1}]}`, "cell 0: negative size"},
		{"np too big", `{"machine":"Zoot","cells":[{"comp":"KNEM-Coll","op":"bcast","size":1,"np":512}]}`, "cell 0: np 512 out of range"},
		{"bad root", `{"machine":"Zoot","cells":[{"comp":"KNEM-Coll","op":"bcast","size":1,"np":4,"root":4}]}`, "cell 0: root 4 out of range"},
		{"unknown field", `{"machine":"Zoot","threads":9}`, "bad request body"},
		{"not json", `hello`, "bad request body"},
		{"too many cells", fmt.Sprintf(`{"machine":"Zoot","cells":[%s]}`,
			strings.TrimSuffix(strings.Repeat(`{"comp":"KNEM-Coll","op":"bcast","size":1},`, 9), ",")),
			"9 cells exceeds the per-request limit of 8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			msg := strings.TrimSpace(buf.String())
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, body %q", resp.StatusCode, msg)
			}
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("error %q does not mention %q", msg, tc.want)
			}
			if strings.Contains(msg, "\n") {
				t.Fatalf("error is not one line: %q", msg)
			}
		})
	}
	if s.histSim.total.Load() != 0 {
		t.Fatalf("invalid requests reached the runner")
	}
}

// TestStatsEndpoint sanity-checks the counters after known traffic.
func TestStatsEndpoint(t *testing.T) {
	bench.DisableCache()
	_, ts := newTestServer(t, Options{LRUSize: 64})
	body := mustJSON(t, testBatch())
	if _, err := postCells(context.Background(), http.DefaultClient, ts.URL, body); err != nil {
		t.Fatal(err)
	}
	if _, err := postCells(context.Background(), http.DefaultClient, ts.URL, body); err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	n := int64(len(testBatch().Cells))
	if st.Batches != 2 || st.CellLatency.Count != 2*n {
		t.Fatalf("batches=%d cells=%d, want 2 and %d", st.Batches, st.CellLatency.Count, 2*n)
	}
	// Second batch is LRU-served even with the bench memo disabled.
	if st.SimLatency.Count != n || st.Cache.LRUHits != n {
		t.Fatalf("sims=%d lru_hits=%d, want %d each", st.SimLatency.Count, st.Cache.LRUHits, n)
	}
	if st.Cache.HitRate != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", st.Cache.HitRate)
	}
	if st.UptimeSeconds <= 0 || st.InFlight != 0 {
		t.Fatalf("uptime=%v inflight=%d", st.UptimeSeconds, st.InFlight)
	}
	if st.BatchLatency.Count != 2 || st.BatchLatency.P99Seconds < st.BatchLatency.P50Seconds {
		t.Fatalf("batch latency hist: %+v", st.BatchLatency)
	}
}

// TestClientDisconnectMidBatch cancels a request while its cells simulate;
// the server must stay healthy and a follow-up request must succeed with
// correct results (the aborted cells released their engine shards).
func TestClientDisconnectMidBatch(t *testing.T) {
	bench.DisableCache()
	_, ts := newTestServer(t, Options{})
	req := BatchRequest{Machine: "IG", Cells: []CellSpec{
		{Comp: "KNEM-Coll", Op: "alltoall", Size: 1 << 20, Iters: 2},
		{Comp: "KNEM-Coll", Op: "alltoall", Size: 2 << 20, Iters: 2},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postCells(ctx, http.DefaultClient, ts.URL, mustJSON(t, req)) // error expected
	}()
	cancel()
	wg.Wait()

	body, err := postCells(context.Background(), http.DefaultClient, ts.URL, mustJSON(t, testBatch()))
	if err != nil {
		t.Fatalf("server unhealthy after client disconnect: %v", err)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want := bench.MustMeasure(bench.Config{
		Machine: topology.ByName("Zoot"), NP: 4, Comp: bench.KNEMColl(),
		Op: bench.OpBcast, Size: 4096, Iters: 1,
	})
	if resp.Results[0].Seconds != want.Seconds {
		t.Fatalf("post-disconnect result diverges: %v vs %v", resp.Results[0].Seconds, want.Seconds)
	}
}

// TestLRUEviction bounds the store: a server with a tiny LRU keeps serving
// correctly while resident entries never exceed the cap.
func TestLRUEviction(t *testing.T) {
	st := newStore(storeShards) // one entry per shard
	for i := 0; i < 10*storeShards; i++ {
		st.put(fmt.Sprintf("key-%d", i), float64(i))
	}
	if n := st.len(); n > storeShards {
		t.Fatalf("store holds %d entries, cap %d", n, storeShards)
	}
	// Update-in-place must not grow the store.
	st.put("key-1", 99)
	st.put("key-1", 100)
	if n := st.len(); n > storeShards {
		t.Fatalf("update grew the store to %d", n)
	}
	if v, ok := st.get("key-1"); ok && v != 100 {
		t.Fatalf("updated entry reads %v", v)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestMachinesResolvedOnce pins the machine memo: concurrent first
// requests for a name end up sharing one *topology.Machine (so the shard
// pool reuses one net per shard), later requests never rebuild it, and
// unknown names are not cached.
func TestMachinesResolvedOnce(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	resolve := memoMachines(func(name string) *topology.Machine {
		mu.Lock()
		calls[name]++
		mu.Unlock()
		return topology.ByName(name)
	})
	got := make([]*topology.Machine, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = resolve("Zoot")
		}()
	}
	wg.Wait()
	for i, m := range got {
		if m == nil || m != got[0] {
			t.Fatalf("request %d got machine %p, first got %p", i, m, got[0])
		}
	}
	built := calls["Zoot"]
	if resolve("Zoot") != got[0] || calls["Zoot"] != built {
		t.Fatalf("a later request rebuilt Zoot (%d builds, was %d)", calls["Zoot"], built)
	}
	for range 3 {
		if resolve("nope") != nil {
			t.Fatal("unknown machine resolved")
		}
	}
	if calls["nope"] != 3 {
		t.Fatalf("unknown name resolved %d times for 3 requests; it must not be cached", calls["nope"])
	}
}
