package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func tinyCfg(workload string, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(workload)
	cfg.WarmupInstructions = 10_000
	cfg.RunInstructions = 20_000
	cfg.Seed = seed
	return cfg
}

// startDaemon boots a manager + HTTP server and returns a client
// pointed at it.
func startDaemon(t *testing.T, cachePath string) (*Client, *server.Manager) {
	t.Helper()
	var cache *sweep.Cache
	if cachePath != "" {
		var err error
		cache, err = sweep.OpenCache(cachePath)
		if err != nil {
			t.Fatal(err)
		}
	}
	m := server.NewManager(server.ManagerConfig{Workers: 2, QueueDepth: 16, Cache: cache})
	ts := httptest.NewServer(server.New(m))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
		ts.Close()
	})
	c := New(ts.URL)
	return c, m
}

// TestRunSweepRemote checks the remote sweep matches a local one
// bit-for-bit, in input order, with a progress event per job.
func TestRunSweepRemote(t *testing.T) {
	c, _ := startDaemon(t, filepath.Join(t.TempDir(), "results.json"))
	jobs := []sweep.Job{
		{Label: "a", Config: tinyCfg("lbm", 1)},
		{Label: "b", Config: tinyCfg("mcf", 2)},
		{Label: "a-dup", Config: tinyCfg("lbm", 1)},
	}
	want, err := sweep.Run(context.Background(), jobs, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	var events []sweep.Event
	got, err := c.RunSweep(context.Background(), jobs, func(ev sweep.Event) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("remote sweep differs from local sweep")
	}
	if len(events) != len(jobs) {
		t.Fatalf("%d progress events, want %d", len(events), len(jobs))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(jobs) {
			t.Errorf("event %d: Done=%d Total=%d", i, ev.Done, ev.Total)
		}
	}

	// Identical re-run: everything must now come from the daemon cache.
	var cachedEvents int
	again, err := c.RunSweep(context.Background(), jobs, func(ev sweep.Event) {
		if ev.Cached {
			cachedEvents++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Error("cached remote sweep differs")
	}
	if cachedEvents != len(jobs) {
		t.Errorf("%d cached events on re-run, want %d", cachedEvents, len(jobs))
	}
}

// TestRunSweepLargerThanQueue: a sweep with more distinct configs than
// the daemon's queue depth must still complete — the client chunks its
// submissions and waits for capacity instead of failing on HTTP 429.
func TestRunSweepLargerThanQueue(t *testing.T) {
	m := server.NewManager(server.ManagerConfig{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(server.New(m))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
		ts.Close()
	})
	c := New(ts.URL)

	var jobs []sweep.Job
	for seed := uint64(0); seed < 6; seed++ {
		jobs = append(jobs, sweep.Job{Label: "j", Config: tinyCfg("lbm", 500+seed)})
	}
	want, err := sweep.Run(context.Background(), jobs, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunSweep(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("over-capacity remote sweep differs from local sweep")
	}
}

// TestClientEndpoints covers the thin wrappers: Submit/Wait/Result/
// Health/Metrics and the typed APIError on 404s.
func TestClientEndpoints(t *testing.T) {
	c, _ := startDaemon(t, filepath.Join(t.TempDir(), "results.json"))
	cfg := tinyCfg("lbm", 33)

	sts, err := c.Submit(context.Background(), []server.JobSpec{{Label: "x", Config: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(context.Background(), sts[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone || st.Result == nil {
		t.Fatalf("waited job = %s (result %v)", st.State, st.Result != nil)
	}

	res, err := c.Result(context.Background(), st.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, *st.Result) {
		t.Error("Result(key) differs from the job result")
	}

	h, err := c.Health(context.Background())
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}
	met, err := c.Metrics(context.Background())
	if err != nil || met.JobsCompleted != 1 {
		t.Fatalf("metrics = %+v, %v", met, err)
	}

	_, err = c.Job(context.Background(), "job-424242")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("unknown job error = %v, want APIError 404", err)
	}
}

// TestClientAnalysis fetches a perf-analyzer report through the typed
// wrapper and checks the 404 cases surface as APIErrors.
func TestClientAnalysis(t *testing.T) {
	c, _ := startDaemon(t, "")
	cfg := tinyCfg("lbm", 44)
	cfg.Analysis = &analysis.Config{Enabled: true}

	sts, err := c.Submit(context.Background(), []server.JobSpec{{Label: "an", Config: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(context.Background(), sts[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Analysis(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result == nil || st.Result.Analysis == nil || rep.Totals != st.Result.Analysis.Totals {
		t.Error("Analysis(id) differs from the job result's report")
	}

	var apiErr *APIError
	if _, err := c.Analysis(context.Background(), "job-424242"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("unknown job analysis error = %v, want APIError 404", err)
	}
	// A done job that ran without analysis is also a 404.
	plain, err := c.Submit(context.Background(), []server.JobSpec{{Config: tinyCfg("lbm", 45)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(context.Background(), plain[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Analysis(context.Background(), plain[0].ID); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("analysis-less job error = %v, want APIError 404", err)
	}
}

// TestClientCancel cancels a queued remote job through the client.
func TestClientCancel(t *testing.T) {
	c, m := startDaemon(t, "")
	blocker := tinyCfg("mcf", 90)
	blocker.RunInstructions = 8_000_000
	// Two blockers occupy both workers; the target queues behind them.
	if _, err := c.Submit(context.Background(), []server.JobSpec{
		{Label: "b1", Config: blocker},
		{Label: "b2", Config: func() sim.Config { b := blocker; b.Seed = 91; return b }()},
	}); err != nil {
		t.Fatal(err)
	}
	sts, err := c.Submit(context.Background(), []server.JobSpec{{Label: "target", Config: tinyCfg("lbm", 92)}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Cancel(context.Background(), sts[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateCanceled {
		t.Fatalf("canceled job is %s", st.State)
	}
	_ = m
}

// startDaemonWithRoot boots a daemon advertising traceRoot as a shared
// trace directory.
func startDaemonWithRoot(t *testing.T, traceRoot string) *Client {
	t.Helper()
	m := server.NewManager(server.ManagerConfig{Workers: 2, QueueDepth: 16, TraceRoot: traceRoot})
	ts := httptest.NewServer(server.New(m))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
		ts.Close()
	})
	c := New(ts.URL)
	return c
}

// writeClientTrace writes a small valid Ramulator-format trace.
func writeClientTrace(t *testing.T, path string) {
	t.Helper()
	var blob []byte
	for i := 0; i < 32; i++ {
		blob = append(blob, []byte(fmt.Sprintf("%d %#x\n", i%3, uint64(i)*64))...)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// traceCfg builds a tiny config replaying path on its single core.
func traceCfg(path string) sim.Config {
	cfg := tinyCfg("lbm", 1)
	cfg.TraceFiles = []string{path}
	return cfg
}

// TestSubmitRejectsTraceConfigWithoutSharedRoot pins the remote
// trace-file bug: a daemon with no shared trace root would open the
// path on *its* filesystem (failing, or silently reading whatever file
// happens to live there), so the client must refuse to submit.
func TestSubmitRejectsTraceConfigWithoutSharedRoot(t *testing.T) {
	c, m := startDaemon(t, "")
	path := filepath.Join(t.TempDir(), "core0.trace")
	writeClientTrace(t, path)

	_, err := c.Submit(context.Background(), []server.JobSpec{{Label: "t", Config: traceCfg(path)}})
	if err == nil {
		t.Fatal("trace-file config was submitted to a daemon with no shared trace root")
	}
	if !strings.Contains(err.Error(), "trace root") {
		t.Errorf("rejection %q does not explain the missing trace root", err)
	}
	if !errors.Is(err, server.ErrIneligible) {
		t.Errorf("rejection %v is not marked server.ErrIneligible (fleet schedulers rely on it)", err)
	}
	if mt := m.Metrics(); mt.JobsSubmitted != 0 {
		t.Errorf("daemon recorded %d submissions, want 0 (rejection must be client-side)", mt.JobsSubmitted)
	}

	// Generator configs are unaffected.
	if _, err := c.Submit(context.Background(), []server.JobSpec{{Label: "g", Config: tinyCfg("lbm", 2)}}); err != nil {
		t.Errorf("generator config rejected: %v", err)
	}
}

// TestSubmitTraceConfigUnderSharedRoot covers the allowed path — the
// daemon advertises a root, the file lives under it, and the job runs —
// plus the still-rejected escapes (outside the root, relative paths).
func TestSubmitTraceConfigUnderSharedRoot(t *testing.T) {
	shared := t.TempDir()
	c := startDaemonWithRoot(t, shared)
	path := filepath.Join(shared, "core0.trace")
	writeClientTrace(t, path)

	st, err := c.RunJob(context.Background(), server.JobSpec{Label: "t", Config: traceCfg(path)})
	if err != nil {
		t.Fatalf("trace config under the shared root failed: %v", err)
	}
	if st.State != server.StateDone || st.Result == nil {
		t.Fatalf("job = %s (result %v)", st.State, st.Result != nil)
	}

	outside := filepath.Join(t.TempDir(), "core0.trace")
	writeClientTrace(t, outside)
	if _, err := c.Submit(context.Background(), []server.JobSpec{{Config: traceCfg(outside)}}); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("path outside the shared root: err = %v", err)
	}
	if _, err := c.Submit(context.Background(), []server.JobSpec{{Config: traceCfg("relative/core0.trace")}}); err == nil || !strings.Contains(err.Error(), "relative") {
		t.Errorf("relative path: err = %v", err)
	}
}

// TestRunJob covers the single-job fleet primitive: a success matches a
// local run; a failing simulation surfaces as *server.RemoteJobError
// (the signal that retrying on another worker is pointless).
func TestRunJob(t *testing.T) {
	c, _ := startDaemon(t, filepath.Join(t.TempDir(), "results.json"))
	cfg := tinyCfg("lbm", 77)

	st, err := c.RunJob(context.Background(), server.JobSpec{Label: "ok", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(context.Background(), []sweep.Job{{Config: cfg}}, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Result == nil || !reflect.DeepEqual(*st.Result, want[0]) {
		t.Error("RunJob result differs from a local run")
	}

	bad := cfg
	bad.Workloads = []string{"no-such-workload"}
	_, err = c.RunJob(context.Background(), server.JobSpec{Label: "bad", Config: bad})
	var remoteErr *server.RemoteJobError
	if !errors.As(err, &remoteErr) {
		t.Fatalf("failing job returned %v, want *server.RemoteJobError", err)
	}
	if remoteErr.State != server.StateFailed || remoteErr.Message == "" {
		t.Errorf("RemoteJobError = %+v", remoteErr)
	}
}

// TestRunSweepFailure propagates a remote failure as a *sweep.JobError
// carrying the input position.
func TestRunSweepFailure(t *testing.T) {
	c, _ := startDaemon(t, "")
	good := tinyCfg("lbm", 1)
	jobs := []sweep.Job{{Label: "good", Config: good}}
	// A config that validates but fails at run time: an unknown
	// workload name passes Validate (resolution happens in sim.New).
	bad := good
	bad.Workloads = []string{"no-such-workload"}
	jobs = append(jobs, sweep.Job{Label: "bad", Config: bad})

	_, err := c.RunSweep(context.Background(), jobs, nil)
	if err == nil {
		t.Fatal("remote sweep with a failing job succeeded")
	}
	var jerr *sweep.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("error %v is not a *sweep.JobError", err)
	}
	if jerr.Index != 1 || jerr.Label != "bad" {
		t.Errorf("JobError = index %d label %q, want 1/bad", jerr.Index, jerr.Label)
	}
}

// TestStreamAnalysis is the client half of the live-telemetry proof:
// StreamAnalysis delivers batches that an analysis.StreamAccumulator
// folds into exactly the report Analysis(id) serves afterwards, both
// when the subscription rides the live run and when it replays a
// finished one; and afterSeq at the final cursor yields nothing new.
func TestStreamAnalysis(t *testing.T) {
	c, _ := startDaemon(t, "")
	cfg := tinyCfg("lbm", 46)
	cfg.Analysis = &analysis.Config{Enabled: true, EpochCycles: 10_000, MaxEpochs: 1024, PhaseProfile: true}

	sts, err := c.Submit(context.Background(), []server.JobSpec{{Label: "stream", Config: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	id := sts[0].ID

	// Stream concurrently with the run (whatever fraction of it this
	// subscriber catches live, the snapshot frame covers the rest).
	acc := analysis.NewStreamAccumulator()
	var batches int
	if err := c.StreamAnalysis(context.Background(), id, 0, func(b analysis.StreamBatch) {
		acc.Apply(b)
		batches++
	}); err != nil {
		t.Fatal(err)
	}
	if batches == 0 {
		t.Fatal("stream delivered no batches")
	}
	got, err := acc.Report()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Analysis(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("streamed reconstruction differs from final report:\nstream: %s\nfinal:  %s", gotJSON, wantJSON)
	}

	// A fresh subscription to the finished job replays to the same bytes.
	acc2 := analysis.NewStreamAccumulator()
	if err := c.StreamAnalysis(context.Background(), id, 0, func(b analysis.StreamBatch) { acc2.Apply(b) }); err != nil {
		t.Fatal(err)
	}
	rep2, err := acc2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep2JSON, _ := json.Marshal(rep2); !bytes.Equal(rep2JSON, wantJSON) {
		t.Error("terminal replay differs from final report")
	}

	// Resuming past the final sequence delivers no batches at all.
	var extra int
	if err := c.StreamAnalysis(context.Background(), id, acc2.Seq(), func(analysis.StreamBatch) { extra++ }); err != nil {
		t.Fatal(err)
	}
	if extra != 0 {
		t.Errorf("resume past the end delivered %d batches, want 0", extra)
	}

	// Streaming an analysis-less job fails with the endpoint's 404.
	plain, err := c.Submit(context.Background(), []server.JobSpec{{Config: tinyCfg("lbm", 47)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(context.Background(), plain[0].ID); err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if err := c.StreamAnalysis(context.Background(), plain[0].ID, 0, func(analysis.StreamBatch) {}); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("analysis-less stream error = %v, want APIError 404", err)
	}
}
