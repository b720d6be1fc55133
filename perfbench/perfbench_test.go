package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"

	"repro/internal/serve"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The generators are pure functions of the seed, byte for byte, and the
// seed does change them.
func TestGeneratorsDeterministic(t *testing.T) {
	gen := func(seed int64) []byte {
		var buf bytes.Buffer
		buf.Write(mustJSON(t, paperCells(seed)))
		buf.Write(mustJSON(t, clusterCell(seed)))
		for s := range 3 {
			buf.Write(mustJSON(t, servedSession(seed, s)))
		}
		return buf.Bytes()
	}
	for _, seed := range []int64{0, 1, 7, 1 << 40} {
		if !bytes.Equal(gen(seed), gen(seed)) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
	if bytes.Equal(gen(1), gen(2)) {
		t.Fatal("seeds 1 and 2 generate identical inputs")
	}
}

// The seed moves roots only: the set of (comp, op, size) cells of a
// paper_sweep round, and so its host work, is the same for every seed.
func TestPaperRoundShapeFixed(t *testing.T) {
	shape := func(seed int64) []cellSpec {
		cells := paperCells(seed)
		for i := range cells {
			cells[i].Root = 0
		}
		return cells
	}
	if !slices.Equal(shape(1), shape(99)) {
		t.Fatal("paper_sweep rounds of seeds 1 and 99 differ beyond their roots")
	}
	if n := len(paperCells(1)); n != 65 {
		t.Fatalf("paper_sweep round has %d cells, want 65", n)
	}
}

// A served session opens with a batch no client requests, starts each
// client on a machine with an all-new batch, recurs all but servedFresh
// cells of every later batch from the client's own history on that
// machine, and never lets two requests draw the same fresh cell.
func TestServedSessionShape(t *testing.T) {
	plan := servedSession(5, 0)
	fresh := map[[2]int]int{} // (machine, cell) -> drawer: client, or -1 for the opening
	for _, c := range plan.Opening.Cells {
		fresh[[2]int{plan.Opening.Machine, c}] = -1
	}
	if len(fresh) != servedBatch {
		t.Fatalf("opening batch has %d distinct cells, want %d", len(fresh), servedBatch)
	}
	for k, reqs := range plan.Clients {
		if len(reqs) != servedBatches {
			t.Fatalf("client %d: %d batches, want %d", k, len(reqs), servedBatches)
		}
		seen := map[[2]int]bool{}
		for j, r := range reqs {
			var recurring int
			for _, c := range r.Cells {
				id := [2]int{r.Machine, c}
				if seen[id] {
					recurring++
					continue
				}
				seen[id] = true
				if other, ok := fresh[id]; ok {
					t.Fatalf("cell %v drawn fresh by %d and by client %d", id, other, k)
				}
				fresh[id] = k
			}
			want := servedBatch - servedFresh
			if j == 0 || (r.Machine == 1 && j == 3) { // first batch on the machine
				want = 0
			}
			if len(r.Cells) != servedBatch || recurring != want {
				t.Fatalf("client %d batch %d: %d cells, %d recurring; want %d, %d", k, j, len(r.Cells), recurring, servedBatch, want)
			}
		}
	}
}

// Every cell a seed can generate is pinned.
func TestReferenceCoversWorkloads(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for seed := range int64(20) {
		cells := append(paperCells(seed), clusterCell(seed))
		for mi := range servedMachines {
			cells = append(cells, servedUniverse(mi)...)
		}
		for _, c := range cells {
			if _, ok := ref[c.key()]; !ok {
				t.Fatalf("seed %d: %s is not in the reference", seed, c.key())
			}
		}
	}
}

// A simulated result that differs from the reference in its seconds or in
// any counter fails the check.
func TestPerturbedResultFails(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	c := servedUniverse(1)[0]
	res, err := measureForced(context.Background(), newResolver(nil), c)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.matches(c, res.Seconds, &res.Stats) {
		t.Fatalf("%s: unperturbed result does not match the reference", c.key())
	}
	if ref.matches(c, math.Nextafter(res.Seconds, 1), &res.Stats) {
		t.Fatal("a result one ulp slower still matches")
	}
	st := res.Stats
	st.CtrlMsgs++
	if ref.matches(c, res.Seconds, &st) {
		t.Fatal("a result with one more control message still matches")
	}
}

// A served batch whose seconds differ from the reference counts every
// differing cell as failed.
func TestPerturbedServedCellCounted(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	universe := [][]cellSpec{servedUniverse(0), servedUniverse(1)}
	r := servedReq{Machine: 1, Cells: []int{0, 1, 2}}
	perturb := 1 // index of the cell the fake server answers wrongly
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var in serve.BatchRequest
		if err := json.NewDecoder(req.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := serve.BatchResponse{Machine: in.Machine, Cells: len(in.Cells)}
		for i, c := range in.Cells {
			secs := ref[universe[1][r.Cells[i]].key()].Seconds
			if i == perturb {
				secs *= 1 + 1e-12
			}
			out.Results = append(out.Results, serve.CellResult{
				Comp: c.Comp, Op: c.Op, Size: c.Size, NP: c.NP, Iters: c.Iters, OffCache: c.OffCache, Seconds: secs,
			})
		}
		json.NewEncoder(w).Encode(&out)
	}))
	defer srv.Close()
	ss := &server{base: srv.URL, client: srv.Client()}
	b := postBatch(context.Background(), options{ref: ref, log: io.Discard}, ss, universe, r, nil, 0)
	if b.cells != 3 || b.failed != 1 {
		t.Fatalf("batch of %d cells with %d failed, want 3 with 1", b.cells, b.failed)
	}
}

func TestHitRatioBounds(t *testing.T) {
	for _, tc := range []struct {
		served, misses, distinct int64
		ok                       bool
	}{
		{10, 4, 4, true},
		{10, 10, 10, true},
		{10, 6, 4, true},   // two cells simulated twice
		{10, 11, 4, false}, // more misses than cells served: ratio < 0
		{10, -1, 0, false}, // negative misses: ratio > 1
		{10, 3, 4, false},  // a distinct cell served without a simulation
		{0, 0, 0, false},   // nothing served
		{512, 288, 288, true},
	} {
		r, err := hitRatio(tc.served, tc.misses, tc.distinct)
		if (err == nil) != tc.ok {
			t.Errorf("hitRatio(%d, %d, %d) = %g, %v; want ok %t", tc.served, tc.misses, tc.distinct, r, err, tc.ok)
		}
		if err == nil && (r < 0 || r > 1) {
			t.Errorf("hitRatio(%d, %d, %d) = %g outside [0, 1] without an error", tc.served, tc.misses, tc.distinct, r)
		}
	}
}

// The traced run's direct path reproduces the harness's simulated
// seconds and counters exactly, on reused engines too.
func TestDirectPathMatchesHarness(t *testing.T) {
	rv := newResolver(nil)
	d := newDirectRunner(newTracer())
	for _, c := range []cellSpec{
		{Machine: "IG", Comp: "KNEM-Coll", Op: "bcast", Size: 32 * kib, NP: 48, Root: 11, Iters: 1, OffCache: true},
		{Machine: "IG", Comp: "Tuned-KNEM", Op: "gather", Size: 128 * kib, NP: 48, Root: 47, Iters: 1, OffCache: true},
		{Machine: "IG", Comp: "KNEM-Coll", Op: "alltoall", Size: 32 * kib, NP: 48, Iters: 1, OffCache: true},
		{Machine: "IG", Comp: "KNEM-Coll", Op: "bcast", Size: 32 * kib, NP: 48, Root: 11, Iters: 1, OffCache: true},
	} {
		want, err := measureForced(context.Background(), rv, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.run(rv.config(c), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.seconds != want.Seconds || statsDigest(got.stats) != statsDigest(want.Stats) {
			t.Fatalf("%s: direct %g s, harness %g s (stats equal: %t)", c.key(), got.seconds, want.Seconds,
				statsDigest(got.stats) == statsDigest(want.Stats))
		}
	}
}

// The metric tables perfbench prints are the ones BENCHMARK.json
// declares, and its workloads are the ones perfbench runs.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, perfbench %v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, perfbench %v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, perfbench %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
}
