GO ?= go

.PHONY: all check test test-race vet fuzz-short bench bench-smoke bench-diff cluster-smoke scale-smoke simd-smoke figures table1 results results-check tune-smoke profile clean

all: test vet

check: test vet test-race fuzz-short

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l . | tee /dev/stderr)"

# A short deterministic-ish shake of every fuzz target; run the targets
# individually with a longer -fuzztime to dig.
fuzz-short:
	$(GO) test -run=NONE -fuzz=FuzzVectorRegion -fuzztime=10s ./internal/knem
	$(GO) test -run=NONE -fuzz=FuzzParseMachine -fuzztime=10s ./internal/topology
	$(GO) test -run=NONE -fuzz=FuzzClusterConfig -fuzztime=10s ./internal/topology
	$(GO) test -run=NONE -fuzz=FuzzDecisionTable -fuzztime=10s ./internal/tune
	$(GO) test -run=NONE -fuzz=FuzzEventQueue -fuzztime=10s ./internal/sim

bench:
	$(GO) test -bench=. -benchmem -benchtime=100ms ./internal/sim ./internal/memsim
	$(GO) run ./cmd/simbench -o BENCH_sim.json

# Regression gate: re-measure every simbench cell and fail if a gate its
# cell defines fails: an allocation on a path pinned at 0 allocs/op, or a
# median more than 25% over the committed BENCH_sim.json on the
# sim/park_wake and core/bcast_cell_512 ns/op or the cluster cells'
# allocs/op. The fresh report lands in /tmp so the committed baseline stays
# the comparison point; `make bench` rewrites the baseline deliberately.
bench-smoke:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...
	$(GO) run ./cmd/simbench -check BENCH_sim.json -o /tmp/BENCH_sim.current.json

# Print the old-vs-new delta table between the committed baseline and the
# report bench-smoke just measured (run bench-smoke first).
bench-diff:
	$(GO) run ./cmd/simbench -diff BENCH_sim.json /tmp/BENCH_sim.current.json

# Regenerate every recorded artifact under results/. Output is byte-identical
# at any -parallel level (see internal/bench/parallel.go); the sweeps are
# pinned to -parallel 4 so multi-core hosts regenerate faster. Every cell
# goes through the run memoization cache (default on), so a repeated
# `make results` with no simulator change is served almost entirely from
# disk; pass -no-cache through the tools to force re-simulation.
figures:
	$(GO) run ./cmd/imb -parallel 4 -fig all -iters 1 > results/figures.txt

table1:
	$(GO) run ./cmd/asp -parallel 4 -sample 512 > results/table1.txt

results: figures table1
	$(GO) run ./cmd/imb -parallel 4 -ablation -iters 2 > results/ablations.txt
	$(GO) run ./cmd/imb -parallel 4 -scalability -machine IG -op bcast -sizes 1M -iters 2 > results/scalability.txt

# Drift guard: regenerate every results/ artifact with the memo cache off
# into /tmp/results-check and require each to be byte-identical to the
# committed file. A cached `make results` can replay entries an older
# model recorded; this target always re-simulates.
results-check:
	rm -rf /tmp/results-check
	mkdir -p /tmp/results-check
	$(GO) run ./cmd/imb -no-cache -parallel 4 -fig all -iters 1 > /tmp/results-check/figures.txt
	$(GO) run ./cmd/asp -no-cache -parallel 4 -sample 512 > /tmp/results-check/table1.txt
	$(GO) run ./cmd/imb -no-cache -parallel 4 -ablation -iters 2 > /tmp/results-check/ablations.txt
	$(GO) run ./cmd/imb -no-cache -parallel 4 -scalability -machine IG -op bcast -sizes 1M -iters 2 > /tmp/results-check/scalability.txt
	cmp /tmp/results-check/figures.txt results/figures.txt
	cmp /tmp/results-check/table1.txt results/table1.txt
	cmp /tmp/results-check/ablations.txt results/ablations.txt
	cmp /tmp/results-check/scalability.txt results/scalability.txt

# Profile the simulator hot paths: the simbench trajectory (flow churn,
# cache model, coroutine handoff) and a small uncached IMB sweep (the full
# collective stack) under both the CPU and allocation profilers, then print
# a top-10 summary of each. Raw profiles land in profile/ for
# `go tool pprof -http` digs; the allocation summary of a healthy hot path
# attributes (almost) everything to setup, not the copy loop.
profile:
	mkdir -p profile
	$(GO) run ./cmd/simbench -cpuprofile profile/sim.cpu.pprof -memprofile profile/sim.mem.pprof -o profile/BENCH_sim.profile.json
	$(GO) run ./cmd/imb -no-cache -op bcast -machine Dancer -sizes 64K,1M -iters 2 -cpuprofile profile/imb.cpu.pprof -memprofile profile/imb.mem.pprof > /dev/null
	$(GO) tool pprof -top -nodecount=10 profile/sim.cpu.pprof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space profile/sim.mem.pprof
	$(GO) tool pprof -top -nodecount=10 profile/imb.cpu.pprof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space profile/imb.mem.pprof

# Autotuner smoke: search a tiny grid twice at different parallelism
# levels with the sim cache off, assert the emitted tables are
# byte-identical; then twice more against a fresh cache directory (first
# run populates, second is served entirely from disk) and assert both
# match the uncached table byte-for-byte — the memoization determinism
# guard. Finally validate the result (including the committed IG table)
# with `tune show`.
tune-smoke:
	$(GO) run ./cmd/tune search -machine Zoot -ops bcast,gather -sizes 64K,256K,1M -parallel 1 -q -no-cache -o /tmp/tune-smoke-a.json
	$(GO) run ./cmd/tune search -machine Zoot -ops bcast,gather -sizes 64K,256K,1M -parallel 4 -q -no-cache -o /tmp/tune-smoke-b.json
	cmp /tmp/tune-smoke-a.json /tmp/tune-smoke-b.json
	rm -rf /tmp/tune-smoke-cache
	$(GO) run ./cmd/tune search -machine Zoot -ops bcast,gather -sizes 64K,256K,1M -parallel 4 -q -cache-dir /tmp/tune-smoke-cache -o /tmp/tune-smoke-c.json
	$(GO) run ./cmd/tune search -machine Zoot -ops bcast,gather -sizes 64K,256K,1M -parallel 4 -q -cache-dir /tmp/tune-smoke-cache -o /tmp/tune-smoke-d.json
	cmp /tmp/tune-smoke-a.json /tmp/tune-smoke-c.json
	cmp /tmp/tune-smoke-c.json /tmp/tune-smoke-d.json
	$(GO) run ./cmd/tune show -machine Zoot /tmp/tune-smoke-a.json > /dev/null
	$(GO) run ./cmd/tune show -machine IG machines/ig.tune.json > /dev/null
	$(GO) run ./cmd/tune diff -defaults machines/ig.tune.json

# Cluster smoke: compile the example cluster, then run the same small
# hierarchical sweep through a fresh memo cache at -parallel 1 and 4. The
# tables must be byte-identical, and the second run must be served 100%
# from the cache (0 misses) — cluster cells memoize like any other cell.
cluster-smoke:
	$(GO) run ./cmd/topo -cluster machines/cluster4.cluster
	rm -rf /tmp/cluster-smoke-cache
	$(GO) run ./cmd/imb -cluster machines/cluster4.cluster -op bcast -sizes 64K,1M -iters 1 -parallel 1 -cache-dir /tmp/cluster-smoke-cache > /tmp/cluster-smoke-a.txt
	$(GO) run ./cmd/imb -cluster machines/cluster4.cluster -op bcast -sizes 64K,1M -iters 1 -parallel 4 -cache-dir /tmp/cluster-smoke-cache > /tmp/cluster-smoke-b.txt 2>/tmp/cluster-smoke-b.err
	cmp /tmp/cluster-smoke-a.txt /tmp/cluster-smoke-b.txt
	grep -q ", 0 misses" /tmp/cluster-smoke-b.err

# Many-core scaling smoke: drive the 512-core synthetic machine (the
# engine-scaling stress cell) end to end under the race detector, at
# -parallel 1 and -parallel 4 with the memo cache off so both runs truly
# simulate — the sharded sweep runner's reuse of engines and nets across
# cells must keep the tables byte-identical at every parallelism level.
# Then run simbench's 10,240-rank cluster cell (one cold run, three warm
# re-runs) under the CPU profiler and assert the profile landed non-empty.
scale-smoke:
	$(GO) run -race ./cmd/imb -machine MC512 -comps KNEM-Coll,Tuned-SM -op bcast -sizes 64K -iters 1 -parallel 1 -no-cache > /tmp/scale-smoke-a.txt
	$(GO) run -race ./cmd/imb -machine MC512 -comps KNEM-Coll,Tuned-SM -op bcast -sizes 64K -iters 1 -parallel 4 -no-cache > /tmp/scale-smoke-b.txt
	cmp /tmp/scale-smoke-a.txt /tmp/scale-smoke-b.txt
	$(GO) run ./cmd/simbench -only cluster/bcast_10k -cpuprofile /tmp/scale-smoke-10k.pprof -o /tmp/scale-smoke-10k.json
	test -s /tmp/scale-smoke-10k.pprof

# Serving smoke: boot the simd daemon on a random port against a fresh
# cache directory and run its built-in contract check — the same batch
# posted by concurrent clients twice over must be byte-identical every
# time and the second round 100% cache-served (verified via /v1/stats
# deltas). simd prints the sweep panel for its smoke cells on stdout;
# running imb over the same cells and cache directory must produce the
# byte-identical panel — the serving tier and the CLI are the same
# deterministic engine behind different front doors.
simd-smoke:
	rm -rf /tmp/simd-smoke-cache
	$(GO) run ./cmd/simd -smoke -cache-dir /tmp/simd-smoke-cache > /tmp/simd-smoke-server.txt
	$(GO) run ./cmd/imb -op bcast -machine Zoot -sizes 64K,1M -iters 1 -comps KNEM-Coll,Tuned-SM -cache-dir /tmp/simd-smoke-cache > /tmp/simd-smoke-imb.txt 2>/tmp/simd-smoke-imb.err
	cmp /tmp/simd-smoke-server.txt /tmp/simd-smoke-imb.txt
	grep -q ", 0 misses" /tmp/simd-smoke-imb.err
	$(GO) run ./cmd/simd -selftest -cache-dir /tmp/simd-smoke-cache > /dev/null

clean:
	$(GO) clean ./...
