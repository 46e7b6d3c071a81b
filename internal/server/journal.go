package server

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// jobJournal is the durable job index the manager keeps beside the
// result cache (<cache path>.jobs). The cache stores results by content
// address only; the journal remembers which job IDs resolved to which
// keys, so after a restart (or after retention pruning evicts the job
// table entry) GET /v1/analysis/{id} and the stream endpoint still
// resolve an old job ID to its cached report, the fleet /metrics
// aggregates are rebuilt from the cached reports, and freshly issued
// IDs never collide with journaled ones.
//
// All methods are safe on a nil receiver (a manager without a cache has
// no journal) and the file is written atomically (tmp + rename), so a
// crash mid-write leaves the previous generation intact.
type jobJournal struct {
	mu    sync.Mutex
	path  string
	limit int // entries retained, oldest dropped first (<=0: unbounded)
	byID  map[string]journalEntry
	order []string // IDs oldest-first

	// Degraded-mode state: after a disk write fails the journal flips to
	// memory-only — record keeps upserting the in-memory index (so ID
	// resolution and numbering stay correct for the life of the process)
	// and the disk is retried once per probeEvery window. The file is a
	// complete snapshot, so the first probe that lands restores every
	// entry accumulated while degraded.
	degraded   bool
	writeErrs  uint64
	restores   uint64
	lastProbe  time.Time
	probeEvery time.Duration // 0 = defaultStorageProbe
}

// defaultStorageProbe spaces restore probes while a journal or cache is
// degraded.
const defaultStorageProbe = time.Second

// journalEntry records one terminal job.
type journalEntry struct {
	ID         string    `json:"id"`
	Key        string    `json:"key,omitempty"` // content address of the config
	Label      string    `json:"label,omitempty"`
	Tenant     string    `json:"tenant,omitempty"` // owning tenant ("" in open mode)
	State      JobState  `json:"state"`
	Worker     string    `json:"worker,omitempty"` // "local" or "cache"; older journals may name a peer
	FinishedAt time.Time `json:"finished_at"`
}

// journalFile is the on-disk format.
type journalFile struct {
	Version int            `json:"version"`
	Jobs    []journalEntry `json:"jobs"`
}

// openJournal loads the journal at path, starting empty when the file
// does not exist. A file that no longer parses is quarantined to
// path+".corrupt" — the bytes survive for inspection and the daemon
// keeps running — rather than aborting startup or being overwritten.
func openJournal(path string, limit int) *jobJournal {
	l := &jobJournal{path: path, limit: limit, byID: map[string]journalEntry{}}
	blob, err := os.ReadFile(path)
	if err != nil {
		return l
	}
	var f journalFile
	if err := json.Unmarshal(blob, &f); err != nil {
		_ = os.Rename(path, path+".corrupt")
		return l
	}
	for _, e := range f.Jobs {
		if e.ID == "" {
			continue
		}
		if _, dup := l.byID[e.ID]; !dup {
			l.order = append(l.order, e.ID)
		}
		l.byID[e.ID] = e
	}
	return l
}

// record upserts the entries and persists the journal. Entries beyond
// the retention limit are dropped oldest-first, mirroring the
// manager's job-table pruning.
func (l *jobJournal) record(entries ...journalEntry) {
	if l == nil || len(entries) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range entries {
		if e.ID == "" {
			continue
		}
		if _, dup := l.byID[e.ID]; !dup {
			l.order = append(l.order, e.ID)
		}
		l.byID[e.ID] = e
	}
	if drop := len(l.order) - l.limit; l.limit > 0 && drop > 0 {
		for _, id := range l.order[:drop] {
			delete(l.byID, id)
		}
		l.order = append([]string(nil), l.order[drop:]...)
	}
	//lint:allow lockio l.mu is the journal's own serialization mutex, never held by request paths; the manager journals outside Manager.mu precisely so a slow disk stalls only the journal (see PR 7)
	l.writeLocked()
}

// writeLocked persists the current entries atomically. Write errors
// never fail the caller: the journal is an availability optimization,
// and a daemon on a full or read-only disk should keep serving rather
// than crash — it degrades to memory-only (health reports it, /readyz
// warns) and probes the disk once per probe window until a write lands.
func (l *jobJournal) writeLocked() {
	now := time.Now()
	if l.degraded && now.Sub(l.lastProbe) < l.probeInterval() {
		return // memory-only: skip the disk until the next probe window
	}
	f := journalFile{Version: 1, Jobs: make([]journalEntry, 0, len(l.order))}
	for _, id := range l.order {
		f.Jobs = append(f.Jobs, l.byID[id])
	}
	blob, err := json.Marshal(f)
	if err != nil {
		return
	}
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		l.noteWriteErrorLocked(now)
		return
	}
	if err := os.Rename(tmp, l.path); err != nil {
		l.noteWriteErrorLocked(now)
		return
	}
	if l.degraded {
		l.degraded = false
		l.restores++
	}
}

// noteWriteErrorLocked records a failed disk write and (re)enters
// degraded memory-only mode. Caller holds l.mu.
func (l *jobJournal) noteWriteErrorLocked(now time.Time) {
	l.writeErrs++
	l.degraded = true
	l.lastProbe = now
}

// probeInterval returns the configured restore-probe spacing.
func (l *jobJournal) probeInterval() time.Duration {
	if l.probeEvery > 0 {
		return l.probeEvery
	}
	return defaultStorageProbe
}

// setStorageProbeInterval overrides how often a degraded journal probes
// the disk for recovery (default one second).
func (l *jobJournal) setStorageProbeInterval(d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if d < 0 {
		d = 0
	}
	l.probeEvery = d
}

// health reports the journal's degraded-mode state. Nil-safe: a
// journal-less manager reports healthy.
func (l *jobJournal) health() (degraded bool, writeErrs, restores uint64) {
	if l == nil {
		return false, 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded, l.writeErrs, l.restores
}

// lookup returns the journaled entry for a job ID.
func (l *jobJournal) lookup(id string) (journalEntry, bool) {
	if l == nil {
		return journalEntry{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.byID[id]
	return e, ok
}

// entries returns a snapshot of every journaled entry, oldest first.
func (l *jobJournal) entries() []journalEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]journalEntry, 0, len(l.order))
	for _, id := range l.order {
		out = append(out, l.byID[id])
	}
	return out
}

// maxID returns the highest numeric job ID in the journal, so a
// restarted manager resumes numbering above every ID it ever persisted
// instead of reissuing them.
func (l *jobJournal) maxID() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var max uint64
	for id := range l.byID {
		var n uint64
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > max {
			max = n
		}
	}
	return max
}
