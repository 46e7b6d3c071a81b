package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/sim"
)

// cacheVersion guards the on-disk format; bump it when sim.Result or
// sim.Config change shape so stale files are rejected instead of
// half-decoded. It does NOT fingerprint the simulator model: entries
// are keyed by config alone, so after changing simulation code itself
// delete the results file (keeping hits valid across rebuilds is what
// makes the cache useful while iterating on campaign scripts).
const cacheVersion = 1

// ErrUncacheable marks configs that cannot be keyed: a Custom mechanism
// embeds an arbitrary function whose behaviour the hash cannot capture,
// and a trace file the process cannot read leaves the simulation input
// unfingerprintable.
var ErrUncacheable = errors.New("sweep: config cannot be content-addressed")

// Key returns the cache key of cfg: the hex SHA-256 of its canonical
// JSON encoding plus, for trace-driven configs, a digest of each trace
// file's contents. Hashing the paths alone would let a trace
// regenerated at the same path silently serve a stale cached Result
// (and a daemon's persistent cache would serve it across restarts), so
// the key changes whenever the bytes behind a path change. Two configs
// share a key exactly when every exported field matches and every
// referenced trace file holds the same bytes, so a key identifies one
// deterministic simulation outcome. Configs without trace files hash
// exactly as before, keeping historical cache entries valid.
func Key(cfg sim.Config) (string, error) {
	if cfg.Mechanism == sim.Custom || cfg.CustomMechanism != nil {
		return "", fmt.Errorf("%w: custom mechanisms embed arbitrary code", ErrUncacheable)
	}
	blob, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("sweep: hashing config: %w", err)
	}
	h := sha256.New()
	h.Write(blob)
	for i, path := range cfg.TraceFiles {
		if path == "" {
			continue
		}
		sum, err := fileDigest(path)
		if err != nil {
			// The simulation itself will surface the real failure; a
			// result must never be stored under a key whose inputs
			// could not be fingerprinted.
			return "", fmt.Errorf("%w: trace %s: %v", ErrUncacheable, path, err)
		}
		fmt.Fprintf(h, "|trace%d:%x", i, sum)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fileDigest returns the SHA-256 of the file's contents.
func fileDigest(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	return h.Sum(nil), nil
}

// cacheFile is the persisted form: {"version":1,"entries":{key:Result}}.
// OpenCache decodes it with each entry left encoded, then decodes the
// entries one by one, keeping every entry's bytes for later snapshots.
type cacheFile struct {
	Version int                        `json:"version"`
	Entries map[string]json.RawMessage `json:"entries"`
}

// entry is one stored result together with its JSON encoding. The
// encoding is made once, when the result is stored (or read from the
// file), so rewriting the file after a Put encodes one result, not
// every result in the store.
type entry struct {
	res sim.Result
	raw json.RawMessage
}

// Cache is a disk-backed result store shared by the workers of a sweep
// (and across sweeps: figures reusing a baseline config hit entries
// written by earlier figures or earlier processes). Safe for concurrent
// use within one process; concurrent processes on the same file are
// not coordinated.
type Cache struct {
	path string

	mu      sync.Mutex
	entries map[string]entry
	seq     uint64 // bumped per mutation; orders snapshots

	// writeMu covers disk I/O only, so workers flushing the store do
	// not block Get/Put on the entry map.
	writeMu sync.Mutex
	written uint64 // seq of the newest snapshot on disk

	// Degraded-mode state, guarded by writeMu: after a disk write fails
	// (disk full, read-only filesystem) the cache flips to memory-only —
	// entries stay servable, Put stops returning errors, and disk writes
	// are suppressed except for one probe per probeEvery window. A probe
	// that lands restores normal write-through (the snapshot is always
	// complete, so nothing accumulated while degraded is lost).
	degraded   bool
	writeErrs  uint64
	restores   uint64
	lastProbe  time.Time
	probeEvery time.Duration // 0 = defaultStorageProbe

	recovery string // warning from OpenCache quarantining a bad snapshot
}

// defaultStorageProbe spaces restore probes while degraded.
const defaultStorageProbe = time.Second

// OpenCache loads the results file at path, starting empty when the
// file does not exist yet.
//
// A snapshot that cannot be decoded — truncated by a crash, hand-edited
// into invalid JSON, or written by a different format version — does
// not fail the open: the bad file is moved aside to <path>.corrupt
// (replacing any previous quarantine) and the cache starts empty, so a
// campaign resume degrades to a fresh run instead of bricking until
// someone deletes the file by hand. RecoveryNote reports when that
// happened so callers can warn the user.
func OpenCache(path string) (*Cache, error) {
	c := &Cache{path: path, entries: map[string]entry{}}
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: opening cache: %w", err)
	}
	var f cacheFile
	var reason string
	switch err := json.Unmarshal(blob, &f); {
	case err != nil:
		reason = fmt.Sprintf("not a results file: %v", err)
	case f.Version != cacheVersion:
		reason = fmt.Sprintf("version %d, want %d", f.Version, cacheVersion)
	}
	entries := make(map[string]entry, len(f.Entries))
	if reason == "" {
		for key, raw := range f.Entries {
			var res sim.Result
			if err := json.Unmarshal(raw, &res); err != nil {
				reason = fmt.Sprintf("not a results file: entry %s: %v", key, err)
				break
			}
			entries[key] = entry{res: res, raw: raw}
		}
	}
	if reason != "" {
		quarantine := path + ".corrupt"
		if err := os.Rename(path, quarantine); err != nil {
			return nil, fmt.Errorf("sweep: cache %s is %s, and quarantining it failed: %w", path, reason, err)
		}
		c.recovery = fmt.Sprintf("sweep: cache %s is %s; moved it to %s and starting empty", path, reason, quarantine)
		return c, nil
	}
	c.entries = entries
	return c, nil
}

// RecoveryNote returns a human-readable warning when OpenCache found an
// undecodable snapshot and quarantined it, or "" when the open was
// clean. Callers should surface it (stderr, logs) so a silently emptied
// cache does not masquerade as a first run.
func (c *Cache) RecoveryNote() string { return c.recovery }

// Path returns the backing file.
func (c *Cache) Path() string { return c.path }

// Len returns the number of stored results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get returns the stored result for cfg, if any. Uncacheable configs
// always miss.
func (c *Cache) Get(cfg sim.Config) (sim.Result, bool) {
	key, err := Key(cfg)
	if err != nil {
		return sim.Result{}, false
	}
	return c.Lookup(key)
}

// Lookup returns the stored result for a raw content-address key (the
// hex SHA-256 Key of some config), letting services serve results to
// clients that hold only the key.
func (c *Cache) Lookup(key string) (sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return e.res, ok
}

// Keys returns the content-address keys of all stored results, sorted.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Put stores the result for cfg and flushes the file, so an
// interrupted campaign loses at most the jobs still in flight.
// Uncacheable configs are skipped without error.
func (c *Cache) Put(cfg sim.Config, res sim.Result) error {
	key, err := Key(cfg)
	if errors.Is(err, ErrUncacheable) {
		return nil
	}
	if err != nil {
		return err
	}
	return c.PutKeyed(key, res)
}

// PutKeyed stores res under an already computed content-address key and
// flushes the file. Callers that hold the key (the sweep engine, the
// fleet dispatcher) use it to avoid re-hashing the config — for
// trace-driven configs Key re-digests every trace file, which is worth
// doing once per job, not once per cache operation.
func (c *Cache) PutKeyed(key string, res sim.Result) error {
	raw, err := json.Marshal(res)
	if err != nil {
		// An unencodable result is a programming error, not a disk state.
		return fmt.Errorf("sweep: encoding cache: %w", err)
	}
	c.mu.Lock()
	c.entries[key] = entry{res: res, raw: raw}
	c.seq++
	seq := c.seq
	snapshot := make(map[string]json.RawMessage, len(c.entries))
	for k, e := range c.entries {
		snapshot[k] = e.raw
	}
	c.mu.Unlock()
	c.write(seq, snapshot)
	return nil
}

// encodeFile renders a snapshot as the results file. The bytes are
// those json.Marshal gives for the version and a map[string]sim.Result
// of the decoded results (keys sorted, values compact), but each value
// is spliced in from its stored encoding: splicing is a copy, where
// json.Marshal would re-validate every raw value, and re-encoding every
// Result would cost O(n) encodes per Put.
func encodeFile(snapshot map[string]json.RawMessage) []byte {
	keys := make([]string, 0, len(snapshot))
	size := 32
	for k, raw := range snapshot {
		keys = append(keys, k)
		size += len(k) + len(raw) + 4
	}
	sort.Strings(keys)
	blob := make([]byte, 0, size)
	blob = append(blob, `{"version":`...)
	blob = strconv.AppendInt(blob, cacheVersion, 10)
	blob = append(blob, `,"entries":{`...)
	for i, k := range keys {
		if i > 0 {
			blob = append(blob, ',')
		}
		quoted, _ := json.Marshal(k) // a string always encodes
		blob = append(blob, quoted...)
		blob = append(blob, ':')
		blob = append(blob, snapshot[k]...)
	}
	return append(blob, "}}"...)
}

// write lands one snapshot atomically (temp file + rename), so a crash
// mid-write never corrupts the previous on-disk state. Encoding and
// I/O run outside the entry-map mutex, so flushing never blocks
// Get/Put; concurrent completions coalesce — a snapshot older than
// what already reached disk is dropped instead of queueing workers.
//
// Disk failures never propagate: the cache is an availability
// optimization, and a full or read-only disk must not fail the
// simulation whose result is being stored. Instead the cache degrades
// to memory-only (StorageHealth reports it) and retries the disk once
// per probe window — each snapshot is complete, so the first probe
// that lands restores everything accumulated while degraded.
func (c *Cache) write(seq uint64, snapshot map[string]json.RawMessage) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if seq <= c.written {
		return
	}
	now := time.Now()
	if c.degraded && now.Sub(c.lastProbe) < c.probeInterval() {
		return // memory-only: skip the disk until the next probe window
	}
	blob := encodeFile(snapshot)
	tmp := c.path + ".tmp"
	//lint:allow lockio writeMu is a dedicated I/O-serialization mutex ordering snapshot writes; the entry map uses a separate lock, so Get/Put never wait on disk
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		c.noteWriteErrorLocked(now)
		return
	}
	//lint:allow lockio writeMu is a dedicated I/O-serialization mutex ordering snapshot writes; rename completes the atomic temp-file publish started above
	if err := os.Rename(tmp, c.path); err != nil {
		c.noteWriteErrorLocked(now)
		return
	}
	if c.degraded {
		c.degraded = false
		c.restores++
	}
	c.written = seq
}

// noteWriteErrorLocked records a failed disk write and (re)enters
// degraded memory-only mode. Caller holds writeMu.
func (c *Cache) noteWriteErrorLocked(now time.Time) {
	c.writeErrs++
	c.degraded = true
	c.lastProbe = now
}

// probeInterval returns the configured restore-probe spacing.
func (c *Cache) probeInterval() time.Duration {
	if c.probeEvery > 0 {
		return c.probeEvery
	}
	return defaultStorageProbe
}

// SetStorageProbeInterval overrides how often a degraded cache probes
// the disk for recovery (default one second). Zero or negative restores
// the default.
func (c *Cache) SetStorageProbeInterval(d time.Duration) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if d < 0 {
		d = 0
	}
	c.probeEvery = d
}

// StorageHealth reports the degraded-mode state: whether the cache is
// currently memory-only, how many disk writes have failed, and how many
// times a probe restored write-through.
func (c *Cache) StorageHealth() (degraded bool, writeErrs, restores uint64) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.degraded, c.writeErrs, c.restores
}
