package bench

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/trace"
	"repro/internal/tune"
)

// Run memoization: the simulator is deterministic, so a measurement cell is
// a pure function of its inputs. Measure therefore keys each cell by
// everything that shapes its result — simulator generation, machine
// fingerprint, canonical component configuration, operation, message size,
// nranks, iteration count, off-cache flag, root, and the content hash of
// any tuned decision table steering the run — and replays the recorded
// (seconds, stats) pair instead of re-simulating when the key was seen
// before. Successive-halving tuner rounds, repeated figure regenerations,
// and back-to-back `tune search` / `imb` invocations hit the cache instead
// of re-running identical simulations.
//
// The cache is content-addressed: the in-memory layer maps the full key
// string, and the optional disk layer stores one JSON entry per key under
// sha256(key), with the key recorded inside the entry so a hash collision
// or truncated file is detected and treated as a miss. Entries are written
// via create-temp + rename, so concurrent cells — and concurrent
// processes sharing a cache directory — never observe partial writes.
// Faulty runs (Config.Fault != nil) and components without a canonical
// configuration encoding (Comp.Key == "") are never cached.

// simFingerprint names the current simulated-behavior generation and is
// part of every cache key. Bump it whenever a change to the simulator or
// the protocol stack (internal/sim, internal/memsim, internal/mpi,
// internal/knem, internal/core, internal/coll/...) alters any simulated
// timestamp or counter, so stale entries can never leak into new results.
const simFingerprint = "sim/g3-partition"

// cacheSchema versions the on-disk entry format.
const cacheSchema = "simcache/v1"

// memo is one enabled run memo: the persistent directory ("" keeps it
// in-memory only) and the in-memory layer over it.
type memo struct {
	dir string
	mem sync.Map // key string -> memoEntry or rawMemoEntry
}

// entryHead opens every on-disk entry. The full key is recorded inside
// the entry, so a hash collision or a truncated file reads as a miss.
type entryHead struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
}

func (h *entryHead) head() *entryHead { return h }

// memoEntry is one cached Measure cell, also the on-disk JSON document.
// Seconds and the Stats counters round-trip exactly through encoding/json
// (shortest-representation floats, integer counters), so a cache hit is
// bit-for-bit identical to the simulation it replaces.
type memoEntry struct {
	entryHead
	Seconds float64     `json:"seconds"`
	Stats   trace.Stats `json:"stats"`
}

// rawMemoEntry carries a memoized cell whose payload is not a Measure
// (seconds, stats) pair — the ASP application cells of Table I.
type rawMemoEntry struct {
	entryHead
	Value json.RawMessage `json:"value"`
}

// EnableCache turns on run memoization with an empty in-memory layer. dir
// is the persistent cache directory shared across processes; "" keeps the
// cache in-memory only. Missing parents are created, and writability is
// probed up front: per-entry writes are deliberately best-effort and
// silent (they cost speed, not results), so a directory that can never
// accept a write must be rejected here, once, with one clear error — not
// discovered late as a per-shard no-op. Enabling resets the runner's
// hit/miss/dedup counters.
func (r *Runner) EnableCache(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("bench: cache dir %s: %v", dir, err)
		}
		probe, err := os.CreateTemp(dir, ".probe-*")
		if err != nil {
			return fmt.Errorf("bench: cache dir %s is not writable: %v", dir, err)
		}
		probe.Close()
		os.Remove(probe.Name())
	}
	r.hits.Store(0)
	r.misses.Store(0)
	r.deduped.Store(0)
	r.memo.Store(&memo{dir: dir})
	return nil
}

// DisableCache turns run memoization off (the default). The in-memory
// entries are dropped; disk entries are kept for future runs.
func (r *Runner) DisableCache() { r.memo.Store(nil) }

// EnableDefaultCache turns on run memoization (unless noCache), using dir
// or a per-user default directory; it reports whether the cache is on.
// An explicitly requested directory that cannot be created or written is
// an error the caller must fail fast on — the user asked for exactly that
// path, so silently degrading would hide a misconfiguration. Only the
// implicit per-user default degrades to an in-process cache with a
// warning: there the cache trades speed, never results. This is the
// shared flag plumbing behind the -no-cache/-cache-dir flags of imb,
// tune, asp, and simd.
func (r *Runner) EnableDefaultCache(prog string, noCache bool, dir string) (bool, error) {
	if noCache {
		return false, nil
	}
	if dir != "" {
		if err := r.EnableCache(dir); err != nil {
			return false, err
		}
		return true, nil
	}
	if base, err := os.UserCacheDir(); err == nil {
		dir = filepath.Join(base, "repro-sim")
	}
	if err := r.EnableCache(dir); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v (continuing with an in-memory cache)\n", prog, err)
		r.EnableCache("")
	}
	return true, nil
}

// ReportCacheCounts prints the hit/miss summary the cache-enabled commands
// emit on exit.
func (r *Runner) ReportCacheCounts(prog string) {
	hits, misses := r.CacheCounts()
	fmt.Fprintf(os.Stderr, "%s: sim cache: %d hits, %d misses\n", prog, hits, misses)
}

// CacheCounts returns how many of the runner's memoized calls were served
// from the cache and how many had to simulate since the cache was last
// enabled. Calls that waited on an identical in-flight cell (singleflight)
// count as hits: they were served without a simulation of their own.
func (r *Runner) CacheCounts() (hits, misses int64) {
	return r.hits.Load(), r.misses.Load()
}

// DedupedCount returns how many Measure calls were deduplicated against an
// identical in-flight cell since the cache was last enabled — each one a
// simulation the singleflight layer avoided without touching disk.
func (r *Runner) DedupedCount() int64 { return r.deduped.Load() }

// memoKey builds cfg's cache key. ok is false when the cell must not be
// cached: a fault plan is active, or the component carries no canonical
// configuration encoding. cfg must already have NP and Iters defaulted,
// and dec must be the effective decider (explicit or global).
func memoKey(cfg Config, dec *tune.Decider) (string, bool) {
	if cfg.Fault != nil || cfg.Comp.Key == "" {
		return "", false
	}
	decKey := "none"
	if dec != nil {
		decKey = dec.Table().ContentHash()
	}
	return fmt.Sprintf("%s|%s|m=%s|comp=%s|btl=%d|knemmin=%d|op=%s|size=%d|np=%d|iters=%d|oc=%t|root=%d|dec=%s",
		cacheSchema, simFingerprint, tune.Fingerprint(cfg.Machine), cfg.Comp.Key,
		cfg.Comp.BTL, cfg.Comp.KnemMin, cfg.Op, cfg.Size, cfg.NP, cfg.Iters,
		cfg.OffCache, cfg.Root, decKey), true
}

// entryPath shards entries by the first hash byte to keep directories flat.
func entryPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	h := fmt.Sprintf("%x", sum)
	return filepath.Join(dir, h[:2], h+".json")
}

// headed is an entry type whose pointer exposes its entryHead.
type headed[E any] interface {
	*E
	head() *entryHead
}

// peek consults the in-memory layer, then disk, without touching the
// hit/miss counters — each caller accounts its own calls. Disk hits are
// promoted to memory. Any read, decode, or key mismatch problem is a miss.
func peek[E any, P headed[E]](m *memo, key string) (E, bool) {
	if v, ok := m.mem.Load(key); ok {
		e, ok := v.(E)
		return e, ok
	}
	var e E
	if m.dir == "" {
		return e, false
	}
	data, err := os.ReadFile(entryPath(m.dir, key))
	if err != nil || json.Unmarshal(data, &e) != nil || *P(&e).head() != (entryHead{cacheSchema, key}) {
		return *new(E), false
	}
	m.mem.Store(key, e)
	return e, true
}

// put records a freshly computed entry under key. Disk persistence is
// best-effort, via create-temp + rename so concurrent writers never leave
// partial files: a full or read-only cache directory costs future speed,
// not correctness, so write errors are ignored.
func put[E any, P headed[E]](m *memo, key string, e E) {
	*P(&e).head() = entryHead{cacheSchema, key}
	m.mem.Store(key, e)
	if m.dir == "" {
		return
	}
	data, err := json.Marshal(&e)
	if err != nil {
		return
	}
	path := entryPath(m.dir, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}
