package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coll/hier"
	"repro/internal/coll/tuned"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/topology"
	"repro/internal/tune"
)

func memoTestConfig(m *topology.Machine, size int64) Config {
	return Config{
		Machine: m, Comp: KNEMColl(), Op: OpBcast, Size: size,
		Iters: 1, OffCache: true,
	}
}

// TestCacheHitByteIdentical is the core memoization contract: a cached
// replay is bit-for-bit the result the simulation would have produced —
// same Seconds, same Stats counters — and the hit/miss counters account
// for every Measure call.
func TestCacheHitByteIdentical(t *testing.T) {
	m := topology.Dancer()
	cfg := memoTestConfig(m, 64*KiB)

	r := NewRunner()
	fresh := r.MustMeasure(cfg)

	if err := r.EnableCache(""); err != nil {
		t.Fatal(err)
	}
	first := r.MustMeasure(cfg)
	second := r.MustMeasure(cfg)
	if hits, misses := r.CacheCounts(); hits != 1 || misses != 1 {
		t.Fatalf("counts = %d hits, %d misses; want 1, 1", hits, misses)
	}
	for _, r := range []Result{first, second} {
		if r.Seconds != fresh.Seconds || !reflect.DeepEqual(r.Stats, fresh.Stats) {
			t.Fatalf("cached result diverges from uncached:\nfresh  %v %+v\ncached %v %+v",
				fresh.Seconds, fresh.Stats, r.Seconds, r.Stats)
		}
	}
}

// TestCacheDiskRoundTrip drops the in-memory layer between two runs so the
// second is served from the persistent entry, as a separate process would
// be, and must replay identically.
func TestCacheDiskRoundTrip(t *testing.T) {
	m := topology.Dancer()
	cfg := memoTestConfig(m, 64*KiB)
	dir := t.TempDir()

	r := NewRunner()
	if err := r.EnableCache(dir); err != nil {
		t.Fatal(err)
	}
	fresh := r.MustMeasure(cfg)
	r.DisableCache() // drops the in-memory layer, keeps disk

	if err := r.EnableCache(dir); err != nil {
		t.Fatal(err)
	}
	replay := r.MustMeasure(cfg)
	if hits, misses := r.CacheCounts(); hits != 1 || misses != 0 {
		t.Fatalf("counts = %d hits, %d misses; want disk hit with no miss", hits, misses)
	}
	if replay.Seconds != fresh.Seconds || !reflect.DeepEqual(replay.Stats, fresh.Stats) {
		t.Fatalf("disk replay diverges: %v vs %v", replay.Seconds, fresh.Seconds)
	}
}

// TestCacheKeyExclusions pins what must never be cached or conflated:
// fault-injected runs, components without a canonical configuration
// encoding, and cells differing in size, iterations, or decision table.
func TestCacheKeyExclusions(t *testing.T) {
	m := topology.Dancer()
	cfg := memoTestConfig(m, 64*KiB)
	cfg.NP = m.NCores()

	if _, ok := memoKey(cfg, nil); !ok {
		t.Fatal("plain cell refused a key")
	}

	faulty := cfg
	faulty.Fault = &fault.Plan{}
	if _, ok := memoKey(faulty, nil); ok {
		t.Fatal("fault-injected cell got a cache key")
	}

	anon := cfg
	anon.Comp.Key = ""
	if _, ok := memoKey(anon, nil); ok {
		t.Fatal("component without canonical encoding got a cache key")
	}

	base, _ := memoKey(cfg, nil)
	bigger := cfg
	bigger.Size = 128 * KiB
	if k, _ := memoKey(bigger, nil); k == base {
		t.Fatal("size not in the key")
	}
	moreIters := cfg
	moreIters.Iters = 2
	if k, _ := memoKey(moreIters, nil); k == base {
		t.Fatal("iters not in the key")
	}
	dec := tune.NewDecider(&tune.Table{
		Version: tune.TableVersion, Machine: m.Name, Fingerprint: m.Fingerprint(),
		Cells: []tune.Cell{{
			Op: tune.OpBcast, NP: m.NCores(), Size: 64 * KiB,
			Choice: tune.Choice{Comp: "KNEM-Coll"}, Seconds: 1e-4,
		}},
	})
	if k, _ := memoKey(cfg, dec); k == base {
		t.Fatal("decision table not in the key")
	}
}

// TestCacheParallelSweep runs a sweep with duplicated cells through the
// parallel runner with memoization on: under `go test -race` this proves
// concurrent lookups and stores are race-free, and every returned result
// must still equal the sequential uncached measurement.
func TestCacheParallelSweep(t *testing.T) {
	m := topology.Dancer()
	var cfgs []Config
	for i := 0; i < 3; i++ { // duplicates force hit/store interleaving
		for _, sz := range []int64{64 * KiB, 256 * KiB} {
			cfgs = append(cfgs, memoTestConfig(m, sz))
		}
	}

	want := NewRunner().MeasureAll(cfgs)

	r := NewRunner()
	if err := r.EnableCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	r.SetParallel(4)
	got := r.MeasureAll(cfgs)
	for i := range want {
		if got[i].Seconds != want[i].Seconds || !reflect.DeepEqual(got[i].Stats, want[i].Stats) {
			t.Fatalf("cell %d diverges under parallel cached sweep: %v vs %v",
				i, got[i].Seconds, want[i].Seconds)
		}
	}
	hits, misses := r.CacheCounts()
	if hits+misses != int64(len(cfgs)) || misses < 2 {
		t.Fatalf("counts = %d hits, %d misses over %d cells", hits, misses, len(cfgs))
	}
}

// TestCfgKeysCoverEveryField guards the hand-written component keys: for
// every field of core.Config, tuned.Config and hier.Config, found by
// reflection, a non-default value must either change the key or, for the
// hooks no string can encode (deciders, fallbacks), empty it so the cell is
// never cached. A new field the key misses fails here instead of silently
// aliasing cache entries. Values avoid every default because hierCfgKey
// normalises defaults.
func TestCfgKeysCoverEveryField(t *testing.T) {
	cases := []struct {
		name string
		cfg  any // pointer to a zero Config
		key  func(cfg any) string
	}{
		{"core", &core.Config{}, func(c any) string { return coreCfgKey(*c.(*core.Config)) }},
		{"tuned", &tuned.Config{}, func(c any) string { return tunedCfgKey("Tuned-SM", *c.(*tuned.Config)) }},
		{"hier", &hier.Config{}, func(c any) string { return hierCfgKey(*c.(*hier.Config)) }},
	}
	for _, tc := range cases {
		base := tc.key(tc.cfg)
		if base == "" {
			t.Fatalf("%s: zero config has no key", tc.name)
		}
		typ := reflect.TypeOf(tc.cfg).Elem()
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			cfg := reflect.New(typ)
			v := cfg.Elem().Field(i)
			wantEmpty := false
			switch f.Type.Kind() {
			case reflect.Int, reflect.Int64:
				v.SetInt(12345)
			case reflect.Bool:
				v.SetBool(true)
			case reflect.String:
				v.SetString("probe")
			case reflect.Pointer:
				v.Set(reflect.New(f.Type.Elem()))
				wantEmpty = true
			case reflect.Func:
				v.Set(reflect.MakeFunc(f.Type, func([]reflect.Value) []reflect.Value { return nil }))
				wantEmpty = true
			default:
				t.Fatalf("%s.%s: no probe value for kind %s; extend this test", tc.name, f.Name, f.Type.Kind())
			}
			got := tc.key(cfg.Interface())
			switch {
			case wantEmpty && got != "":
				t.Errorf("%s.%s set: key %q, want \"\" (not canonically encodable)", tc.name, f.Name, got)
			case !wantEmpty && (got == "" || got == base):
				t.Errorf("%s.%s set: key %q unchanged from the zero config's; the field is not keyed", tc.name, f.Name, got)
			}
		}
	}
}

// TestEntryFileFormat pins the on-disk layout of both entry kinds, so
// cache directories written by earlier builds keep being served.
func TestEntryFileFormat(t *testing.T) {
	m := &memo{dir: t.TempDir()}
	put(m, "cell", memoEntry{Seconds: 0.25})
	put(m, "table1", rawMemoEntry{Value: json.RawMessage(`{"bcast_seconds":1.5,"total_seconds":2}`)})
	read := func(key string) string {
		data, err := os.ReadFile(entryPath(m.dir, key))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if got, want := read("cell"), `{"schema":"simcache/v1","key":"cell","seconds":0.25,"stats":{`; !strings.HasPrefix(got, want) {
		t.Errorf("Measure entry = %s, want prefix %s", got, want)
	}
	if got, want := read("table1"), `{"schema":"simcache/v1","key":"table1","value":{"bcast_seconds":1.5,"total_seconds":2}}`+"\n"; got != want {
		t.Errorf("Table I entry = %q, want %q", got, want)
	}
	// A fresh memo over the directory reads both back; a missing key is a
	// miss.
	fresh := &memo{dir: m.dir}
	if ent, ok := peek[memoEntry](fresh, "cell"); !ok || ent.Seconds != 0.25 {
		t.Errorf("Measure entry read back as %+v, %v", ent, ok)
	}
	if ent, ok := peek[rawMemoEntry](fresh, "table1"); !ok || string(ent.Value) != `{"bcast_seconds":1.5,"total_seconds":2}` {
		t.Errorf("Table I entry read back as %+v, %v", ent, ok)
	}
	if _, ok := peek[rawMemoEntry](&memo{dir: m.dir}, "missing"); ok {
		t.Error("missing key served")
	}
}
