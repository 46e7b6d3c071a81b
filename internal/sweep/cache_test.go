package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestKeyStableAndDiscriminating(t *testing.T) {
	a := tinyConfig("lbm", 1)
	k1, err := Key(a)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(a)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("same config hashed to different keys")
	}
	b := a
	b.Seed = 2
	kb, err := Key(b)
	if err != nil {
		t.Fatal(err)
	}
	if kb == k1 {
		t.Error("different seeds share a key")
	}
}

func TestKeyRejectsCustomMechanism(t *testing.T) {
	cfg := tinyConfig("lbm", 1)
	cfg.Mechanism = sim.Custom
	if _, err := Key(cfg); err == nil {
		t.Error("custom-mechanism config was keyed")
	}
}

// TestCacheRoundTrip checks a stored result decodes back identical, so
// cached campaigns reproduce fresh ones exactly.
func TestCacheRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig("lbm", 9)
	res := runSerial(t, cfg)
	if err := c.Put(cfg, res); err != nil {
		t.Fatal(err)
	}

	// A fresh open must see the persisted entry, not just the in-memory
	// copy.
	reopened, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 1 {
		t.Fatalf("reopened cache has %d entries, want 1", reopened.Len())
	}
	got, ok := reopened.Get(cfg)
	if !ok {
		t.Fatal("stored result missing after reopen")
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("cached result differs from original:\ngot  %+v\nwant %+v", got, res)
	}
}

// TestCacheFileBytesMatchEncodedResults pins the results file to the
// bytes json.Marshal gives for the decoded entries, across
// Put → reopen → Put: stored encodings spliced into a snapshot must
// not change the file format.
func TestCacheFileBytesMatchEncodedResults(t *testing.T) {
	type typedFile struct {
		Version int                   `json:"version"`
		Entries map[string]sim.Result `json:"entries"`
	}
	path := filepath.Join(t.TempDir(), "results.json")
	want := typedFile{Version: cacheVersion, Entries: map[string]sim.Result{}}
	check := func(stage string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blob) {
			t.Fatalf("%s: file (%d bytes) differs from json.Marshal of its %d entries (%d bytes)",
				stage, len(got), len(want.Entries), len(blob))
		}
	}
	put := func(c *Cache, cfg sim.Config) {
		t.Helper()
		res := runSerial(t, cfg)
		if err := c.Put(cfg, res); err != nil {
			t.Fatal(err)
		}
		key, err := Key(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want.Entries[key] = res
	}

	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	cc := tinyConfig("mcf", 2)
	cc.Mechanism = sim.ChargeCache
	for _, cfg := range []sim.Config{tinyConfig("lbm", 1), cc, tinyConfig("tpch6", 3)} {
		put(c, cfg)
	}
	check("after Put")

	reopened, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != len(want.Entries) {
		t.Fatalf("reopened cache has %d entries, want %d", reopened.Len(), len(want.Entries))
	}
	put(reopened, tinyConfig("libquantum", 4))
	check("after reopen and Put")
}

// TestSweepResume simulates resuming a campaign: the first sweep
// persists everything; a second sweep over the same configs must serve
// every job from the cache and return identical results.
func TestSweepResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	cache, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Label: "a", Config: tinyConfig("lbm", 1)},
		{Label: "b", Config: tinyConfig("mcf", 2)},
	}
	first, err := Run(context.Background(), jobs, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	cache2, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	var cached int
	second, err := Run(context.Background(), jobs, Options{
		Workers: 2,
		Cache:   cache2,
		Progress: func(ev Event) {
			if ev.Cached {
				cached++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cached != len(jobs) {
		t.Errorf("%d jobs served from cache, want %d", cached, len(jobs))
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached results differ from fresh results")
	}
}

// TestOpenCacheQuarantinesGarbage is the regression test for corrupt
// snapshots bricking campaign resume: a truncated or hand-mangled file
// must be moved aside to <path>.corrupt and the cache must come up
// empty and usable, with the incident reported via RecoveryNote.
func TestOpenCacheQuarantinesGarbage(t *testing.T) {
	for _, tc := range []struct {
		name string
		blob string
	}{
		{"truncated", `{"version":1,"entries":{"abc":{"Sat`},
		{"not-json", "not json{"},
		{"future-version", `{"version":99,"entries":{}}`},
		{"entry-not-a-result", `{"version":1,"entries":{"abc":5}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "results.json")
			if err := os.WriteFile(path, []byte(tc.blob), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := OpenCache(path)
			if err != nil {
				t.Fatalf("corrupt snapshot failed the open: %v", err)
			}
			if c.Len() != 0 {
				t.Errorf("recovered cache has %d entries, want 0", c.Len())
			}
			if c.RecoveryNote() == "" {
				t.Error("no recovery warning for a quarantined snapshot")
			}
			moved, err := os.ReadFile(path + ".corrupt")
			if err != nil {
				t.Fatalf("bad snapshot was not moved aside: %v", err)
			}
			if string(moved) != tc.blob {
				t.Error("quarantined file does not preserve the bad snapshot")
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("bad snapshot still at %s (err %v)", path, err)
			}

			// The recovered cache must be fully usable: Put persists a
			// fresh snapshot at the original path.
			cfg := tinyConfig("lbm", 3)
			res := runSerial(t, cfg)
			if err := c.Put(cfg, res); err != nil {
				t.Fatal(err)
			}
			reopened, err := OpenCache(path)
			if err != nil {
				t.Fatal(err)
			}
			if reopened.RecoveryNote() != "" {
				t.Error("clean reopen carries a recovery warning")
			}
			if got, ok := reopened.Get(cfg); !ok || !reflect.DeepEqual(got, res) {
				t.Error("result written after recovery did not persist")
			}
		})
	}
}

// writeTrace dumps records of the form "<bubbles> <addr>" so tests can
// build valid trace-driven configs with controlled file contents.
func writeTrace(t *testing.T, path string, addrs []uint64) {
	t.Helper()
	var blob []byte
	for i, a := range addrs {
		blob = append(blob, []byte(fmt.Sprintf("%d %#x\n", i%3, a))...)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// traceConfig builds a tiny single-core config replaying path.
func traceConfig(path string) sim.Config {
	cfg := tinyConfig("lbm", 1)
	cfg.TraceFiles = []string{path}
	return cfg
}

// TestKeyDigestsTraceContents pins the cache-staleness fix: the key
// must fingerprint trace file *contents*, not just their paths, so a
// trace regenerated at the same path cannot serve a stale result.
func TestKeyDigestsTraceContents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "core0.trace")
	writeTrace(t, path, []uint64{0x1000, 0x2000, 0x3000})
	k1, err := Key(traceConfig(path))
	if err != nil {
		t.Fatal(err)
	}

	// Same path, different bytes: the key must change.
	writeTrace(t, path, []uint64{0x4000, 0x5000, 0x6000})
	k2, err := Key(traceConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("rewriting the trace file did not change the key")
	}

	// Restoring the original bytes must restore the original key, so
	// identical inputs still share cache entries.
	writeTrace(t, path, []uint64{0x1000, 0x2000, 0x3000})
	k3, err := Key(traceConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	if k3 != k1 {
		t.Error("identical trace bytes hashed to different keys")
	}

	// Generator-only configs must keep their historical keys: an empty
	// TraceFiles slice and a nil one hash identically.
	plain := tinyConfig("lbm", 1)
	kNil, err := Key(plain)
	if err != nil {
		t.Fatal(err)
	}
	if kNil == k1 {
		t.Error("trace-driven config shares a key with the generator config")
	}

	// An unreadable trace makes the config uncacheable rather than
	// silently keyed by path.
	missing := traceConfig(filepath.Join(t.TempDir(), "no-such.trace"))
	if _, err := Key(missing); !errors.Is(err, ErrUncacheable) {
		t.Errorf("missing trace file: got %v, want ErrUncacheable", err)
	}
}

// TestTraceRewriteInvalidatesCache is the end-to-end regression for the
// staleness bug: run a trace-driven config through a cached sweep,
// regenerate the trace at the same path, and rerun — the second sweep
// must simulate afresh and produce the new trace's result, not serve
// the stale cached one (which a persistent daemon cache would otherwise
// do across restarts too).
func TestTraceRewriteInvalidatesCache(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "core0.trace")
	cachePath := filepath.Join(dir, "results.json")

	// Two address streams far enough apart to measure differently.
	first := make([]uint64, 64)
	second := make([]uint64, 64)
	for i := range first {
		first[i] = uint64(i) * 64
		second[i] = uint64(i) * 1 << 20
	}

	writeTrace(t, path, first)
	cache, err := OpenCache(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{Label: "trace", Config: traceConfig(path)}}
	res1, err := Run(context.Background(), jobs, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	// Regenerate the trace at the same path, reopen the cache as a
	// restarted process would, and rerun.
	writeTrace(t, path, second)
	reopened, err := OpenCache(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	var cached bool
	res2, err := Run(context.Background(), jobs, Options{
		Workers:  1,
		Cache:    reopened,
		Progress: func(ev Event) { cached = cached || ev.Cached },
	})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("rewritten trace was served from the cache")
	}
	if reflect.DeepEqual(res1[0], res2[0]) {
		t.Error("rewritten trace reproduced the stale result")
	}

	// Unchanged inputs still resume from the cache.
	var hits int
	res3, err := Run(context.Background(), jobs, Options{
		Workers: 1,
		Cache:   reopened,
		Progress: func(ev Event) {
			if ev.Cached {
				hits++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Errorf("identical rerun had %d cache hits, want 1", hits)
	}
	if !reflect.DeepEqual(res2[0], res3[0]) {
		t.Error("cached rerun differs from the fresh run")
	}
}

// TestCacheLookupByKey covers the content-addressed read path used by
// GET /v1/results/{key}.
func TestCacheLookupByKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig("lbm", 11)
	res := runSerial(t, cfg)
	if err := c.Put(cfg, res); err != nil {
		t.Fatal(err)
	}
	key, err := Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Lookup(key)
	if !ok {
		t.Fatal("stored key misses on Lookup")
	}
	if !reflect.DeepEqual(got, res) {
		t.Error("Lookup returned a different result than Put stored")
	}
	if _, ok := c.Lookup("no-such-key"); ok {
		t.Error("unknown key hit")
	}
	if keys := c.Keys(); len(keys) != 1 || keys[0] != key {
		t.Errorf("Keys() = %v, want [%s]", keys, key)
	}
}
