package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestManagerDeadlineExpiresQueuedJob: a queued job whose propagated
// deadline passes before a worker frees up is failed fast with reason
// "deadline" — it never occupies a scheduler slot.
func TestManagerDeadlineExpiresQueuedJob(t *testing.T) {
	m, release := newHeldManager(t, ManagerConfig{Workers: 1, QueueDepth: 16})

	blocker := submitOne(t, m, heldLabel, heldCfg())
	waitState(t, m, blocker, StateRunning)

	sts, err := m.Submit([]JobSpec{{
		Label:      "doomed",
		Config:     tinyCfg(50),
		DeadlineMs: time.Now().Add(80 * time.Millisecond).UnixMilli(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, sts[0].ID, StateFailed)
	if st.Reason != ReasonDeadline {
		t.Errorf("Reason = %q, want %q", st.Reason, ReasonDeadline)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", st.Error)
	}
	if mt := m.Metrics(); mt.DeadlineExpired != 1 {
		t.Errorf("DeadlineExpired = %d, want 1", mt.DeadlineExpired)
	}

	// The expiry must not disturb the running flight.
	release()
	waitState(t, m, blocker, StateDone)
}

// TestManagerDeadlineShedsAtAdmission covers both admission-shed
// branches: a deadline already in the past, and a deadline the
// estimated queue drain (EWMA of fresh flight durations) cannot meet.
func TestManagerDeadlineShedsAtAdmission(t *testing.T) {
	m, _ := newHeldManager(t, ManagerConfig{Workers: 1, QueueDepth: 16})

	// Past deadline: shed even on an idle manager.
	_, err := m.Submit([]JobSpec{{
		Label:      "late",
		Config:     tinyCfg(60),
		DeadlineMs: time.Now().Add(-50 * time.Millisecond).UnixMilli(),
	}})
	var derr *DeadlineError
	if !errors.As(err, &derr) {
		t.Fatalf("past-deadline submit returned %v, want *DeadlineError", err)
	}

	// Seed the drain estimate with one real flight, occupy the worker,
	// and submit a deadline far shorter than the estimated drain. The
	// seed runs 2M instructions (tens of ms): a tiny flight can finish
	// in under a millisecond, leaving an estimate no longer than the
	// 1 ms deadline below.
	seedCfg := tinyCfg(61)
	seedCfg.RunInstructions = 2_000_000
	seed := submitOne(t, m, "seed", seedCfg)
	waitState(t, m, seed, StateDone)
	blocker := submitOne(t, m, heldLabel, heldCfg())
	waitState(t, m, blocker, StateRunning)

	_, err = m.Submit([]JobSpec{{
		Label:      "unmeetable",
		Config:     tinyCfg(62),
		DeadlineMs: time.Now().Add(time.Millisecond).UnixMilli(),
	}})
	if !errors.As(err, &derr) {
		t.Fatalf("unmeetable submit returned %v, want *DeadlineError", err)
	}
	if derr.Estimate <= 0 {
		t.Errorf("unmeetable shed carries no drain estimate: %v", derr)
	}
	if mt := m.Metrics(); mt.DeadlineShed != 2 {
		t.Errorf("DeadlineShed = %d, want 2", mt.DeadlineShed)
	}
}

// TestSubmitDeadlineHeaderSheds: the HTTP layer parses the client's
// X-Ccsimd-Deadline-Ms header into the specs, and an unmeetable
// deadline is answered 503 with the machine-readable code so fleet
// dispatchers classify it as load, not as a dead daemon.
func TestSubmitDeadlineHeaderSheds(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 16})
	defer drainManager(t, m)
	ts := httptest.NewServer(New(m))
	defer ts.Close()

	submit := func(deadline time.Time) *http.Response {
		t.Helper()
		blob, err := json.Marshal(struct {
			Jobs []JobSpec `json:"jobs"`
		}{[]JobSpec{{Label: "x", Config: tinyCfg(70)}}})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(DeadlineHeader, strconv.FormatInt(deadline.UnixMilli(), 10))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := submit(time.Now().Add(-time.Second))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired-deadline submit: status %d, want 503", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != ErrCodeDeadlineUnmeetable {
		t.Errorf("error code = %q, want %q", e.Code, ErrCodeDeadlineUnmeetable)
	}

	// A generous header deadline is accepted and the job completes.
	resp = submit(time.Now().Add(time.Minute))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("future-deadline submit: status %d, want 202", resp.StatusCode)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, sr.Jobs[0].ID, StateDone)
}

// TestManagerStorageDegradedMode: when every durable-tier disk write
// fails (disk full, read-only filesystem), jobs keep completing, the
// daemon reports storage_degraded on /metrics and a warning (not a
// failure) on /readyz, and the first successful probe restores the
// complete state to disk.
func TestManagerStorageDegradedMode(t *testing.T) {
	dir := t.TempDir()
	cachePath := filepath.Join(dir, "results.json")
	cache, err := sweep.OpenCache(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	// Directories squatting on the atomic-write temp paths make every
	// cache and journal write fail, like a dead disk would.
	for _, p := range []string{cachePath + ".tmp", cachePath + ".jobs.tmp"} {
		if err := os.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	m := NewManager(ManagerConfig{
		Workers:              1,
		QueueDepth:           16,
		Cache:                cache,
		StorageProbeInterval: time.Millisecond,
	})
	defer drainManager(t, m)
	ts := httptest.NewServer(New(m))
	defer ts.Close()

	// The dead disk must not fail the job.
	id := submitOne(t, m, "a", tinyCfg(95))
	waitState(t, m, id, StateDone)

	// Journal writes land asynchronously after job completion: poll.
	var mt Metrics
	deadline := time.Now().Add(10 * time.Second)
	for {
		mt = m.Metrics()
		if mt.Storage != nil && mt.Storage.CacheDegraded && mt.Storage.JournalDegraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("storage never reported degraded: %+v", mt.Storage)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !mt.StorageDegraded {
		t.Error("StorageDegraded flag not set while both tiers are degraded")
	}
	if mt.Storage.CacheWriteErrors < 1 || mt.Storage.JournalWriteErrors < 1 {
		t.Errorf("write errors cache=%d journal=%d, want >= 1 each",
			mt.Storage.CacheWriteErrors, mt.Storage.JournalWriteErrors)
	}
	if mt.JobsFailed != 0 {
		t.Errorf("JobsFailed = %d while degraded, want 0", mt.JobsFailed)
	}

	// /readyz warns but stays ready: a memory-only daemon still serves.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz status %d while degraded, want 200", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Storage != "degraded" {
		t.Errorf("/readyz storage = %q, want \"degraded\"", h.Storage)
	}

	// The disk comes back: the next write probes and restores the full
	// snapshot — nothing accumulated while degraded is lost.
	for _, p := range []string{cachePath + ".tmp", cachePath + ".jobs.tmp"} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * time.Millisecond) // let the probe window lapse
	id2 := submitOne(t, m, "b", tinyCfg(96))
	waitState(t, m, id2, StateDone)

	deadline = time.Now().Add(10 * time.Second)
	for {
		mt = m.Metrics()
		if mt.Storage != nil && !mt.Storage.CacheDegraded && !mt.Storage.JournalDegraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("storage never recovered: %+v", mt.Storage)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if mt.StorageDegraded {
		t.Error("StorageDegraded flag still set after recovery")
	}
	if mt.Storage.CacheRestores < 1 || mt.Storage.JournalRestores < 1 {
		t.Errorf("restores cache=%d journal=%d, want >= 1 each",
			mt.Storage.CacheRestores, mt.Storage.JournalRestores)
	}

	// Both results — including the one completed while memory-only —
	// reached disk.
	reopened, err := sweep.OpenCache(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 2 {
		t.Errorf("restored cache holds %d results, want 2 (degraded-era result included)", reopened.Len())
	}
}
