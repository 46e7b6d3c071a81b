package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func tinyCfg(name string, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(name)
	cfg.WarmupInstructions = 10_000
	cfg.RunInstructions = 20_000
	cfg.Seed = seed
	return cfg
}

// fig7aJobs builds the Quick-scale Figure 7a campaign shape: every
// mechanism for the first n single-core workloads, at the Quick()
// budgets (300k warmup / 150k run).
func fig7aJobs(n int) []sweep.Job {
	var jobs []sweep.Job
	for _, name := range workload.Names()[:n] {
		for _, mech := range sim.MechanismKinds() {
			cfg := sim.DefaultConfig(name)
			cfg.WarmupInstructions = 300_000
			cfg.RunInstructions = 150_000
			cfg.Mechanism = mech
			jobs = append(jobs, sweep.Job{Label: name + "/" + mech.String(), Config: cfg})
		}
	}
	return jobs
}

// startWorker boots one in-process ccsimd worker (manager + HTTP) and
// registers its drain/close.
func startWorker(t *testing.T, cfg server.ManagerConfig) (*httptest.Server, *server.Manager) {
	t.Helper()
	m := server.NewManager(cfg)
	ts := httptest.NewServer(server.New(m))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
		ts.Close()
	})
	return ts, m
}

// distinctKeys counts the singleflight units a job list collapses to.
func distinctKeys(t *testing.T, jobs []sweep.Job) int {
	t.Helper()
	keys := map[string]bool{}
	for _, j := range jobs {
		k, err := sweep.Key(j.Config)
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = true
	}
	return len(keys)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestDistributedCampaignMatchesLocalRun is the core e2e contract: a
// Quick Fig7a campaign (with duplicated jobs thrown in) dispatched over
// three workers must return byte-identical results to a local
// sweep.Run, simulate each distinct config exactly once fleet-wide, and
// write every result back to the local cache.
func TestDistributedCampaignMatchesLocalRun(t *testing.T) {
	jobs := fig7aJobs(4)
	jobs = append(jobs, jobs[0], jobs[7], jobs[13]) // duplicates exercise fleet-wide dedup
	distinct := distinctKeys(t, jobs)

	want, err := sweep.Run(context.Background(), jobs, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	var managers []*server.Manager
	var endpoints []string
	for i := 0; i < 3; i++ {
		ts, m := startWorker(t, server.ManagerConfig{Workers: 2, QueueDepth: 32})
		managers = append(managers, m)
		endpoints = append(endpoints, ts.URL)
	}

	cache, err := sweep.OpenCache(filepath.Join(t.TempDir(), "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	var events []sweep.Event
	got, err := Run(context.Background(), jobs, Options{
		Endpoints: endpoints,
		Cache:     cache,
		Stats:     &stats,
		Progress:  func(ev sweep.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}

	if gb, wb := mustJSON(t, got), mustJSON(t, want); string(gb) != string(wb) {
		t.Error("distributed campaign results are not byte-identical to the local sweep")
	}

	var totalSims uint64
	for _, m := range managers {
		totalSims += m.Metrics().SimulationsRun
	}
	if totalSims != uint64(distinct) {
		t.Errorf("fleet ran %d simulations for %d distinct configs", totalSims, distinct)
	}
	if stats.Simulations != distinct {
		t.Errorf("stats.Simulations = %d, want %d", stats.Simulations, distinct)
	}
	if stats.Deduped != len(jobs)-distinct {
		t.Errorf("stats.Deduped = %d, want %d", stats.Deduped, len(jobs)-distinct)
	}
	if cache.Len() != distinct {
		t.Errorf("local cache holds %d results, want every distinct config (%d)", cache.Len(), distinct)
	}

	if len(events) != len(jobs) {
		t.Fatalf("%d progress events for %d jobs", len(events), len(jobs))
	}
	fresh := 0
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(jobs) {
			t.Errorf("event %d: Done=%d Total=%d", i, ev.Done, ev.Total)
		}
		if !ev.Cached && !ev.Deduped && ev.Err == nil {
			fresh++
		}
	}
	if fresh != distinct {
		t.Errorf("%d fresh completions, want exactly one per distinct config (%d)", fresh, distinct)
	}
}

// TestDistributedCampaignSurvivesWorkerLoss kills one of three workers
// mid-campaign — while it holds jobs in flight — and demands the
// campaign still complete with results byte-identical to a local run,
// with exactly one successful simulation per distinct config.
func TestDistributedCampaignSurvivesWorkerLoss(t *testing.T) {
	jobs := fig7aJobs(6)
	jobs = append(jobs, jobs[2], jobs[11])
	distinct := distinctKeys(t, jobs)

	want, err := sweep.Run(context.Background(), jobs, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Two healthy workers.
	var endpoints []string
	for i := 0; i < 2; i++ {
		ts, _ := startWorker(t, server.ManagerConfig{Workers: 2, QueueDepth: 32})
		endpoints = append(endpoints, ts.URL)
	}

	// The third dies during its third job submission: the submission in
	// flight fails on the wire, every open connection (including polls
	// for its running jobs) is severed, and all later requests get 500s
	// — the harshest realistic loss short of a network partition.
	victim := server.NewManager(server.ManagerConfig{Workers: 2, QueueDepth: 32})
	inner := server.New(victim)
	var submits atomic.Int64
	var killed atomic.Bool
	var victimTS *httptest.Server
	victimTS = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if killed.Load() {
			http.Error(w, "killed", http.StatusInternalServerError)
			return
		}
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/jobs") && submits.Add(1) == 3 {
			killed.Store(true)
			victimTS.CloseClientConnections()
			http.Error(w, "killed", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = victim.Drain(ctx)
		victimTS.Close()
	})
	endpoints = append(endpoints, victimTS.URL)

	var stats Stats
	var events []sweep.Event
	got, err := Run(context.Background(), jobs, Options{
		Endpoints: endpoints,
		Stats:     &stats,
		Progress:  func(ev sweep.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatalf("campaign failed after worker loss: %v", err)
	}
	if !killed.Load() {
		t.Fatal("test never killed the victim worker (campaign too small?)")
	}

	if gb, wb := mustJSON(t, got), mustJSON(t, want); string(gb) != string(wb) {
		t.Error("post-failover results are not byte-identical to the local sweep")
	}
	if stats.DeadEndpoints != 1 {
		t.Errorf("stats.DeadEndpoints = %d, want 1", stats.DeadEndpoints)
	}
	if stats.Retries < 1 {
		t.Errorf("stats.Retries = %d, want >= 1 (the killed submission must be retried elsewhere)", stats.Retries)
	}
	fresh := 0
	for _, ev := range events {
		if ev.Err != nil {
			t.Errorf("event %q carries error %v after successful failover", ev.Label, ev.Err)
		}
		if !ev.Cached && !ev.Deduped {
			fresh++
		}
	}
	if fresh != distinct {
		t.Errorf("%d fresh completions, want exactly one per distinct config (%d)", fresh, distinct)
	}
}

// TestDispatchFailoverFromBrokenEndpoint pins the failover path
// deterministically: an endpoint that probes healthy but fails every
// API call must be marked dead after its first assignment, with its
// units retried on the healthy endpoint.
func TestDispatchFailoverFromBrokenEndpoint(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ok","version":"test","workers":2}`)
			return
		}
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	defer broken.Close()
	ts, m := startWorker(t, server.ManagerConfig{Workers: 1, QueueDepth: 32})

	jobs := []sweep.Job{
		{Label: "a", Config: tinyCfg("lbm", 1)},
		{Label: "b", Config: tinyCfg("lbm", 2)},
		{Label: "c", Config: tinyCfg("mcf", 3)},
		{Label: "d", Config: tinyCfg("mcf", 4)},
	}
	want, err := sweep.Run(context.Background(), jobs, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	got, err := Run(context.Background(), jobs, Options{
		Endpoints: []string{broken.URL, ts.URL},
		Stats:     &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if gb, wb := mustJSON(t, got), mustJSON(t, want); string(gb) != string(wb) {
		t.Error("failover results differ from the local sweep")
	}
	if stats.DeadEndpoints != 1 || stats.Retries < 1 {
		t.Errorf("DeadEndpoints=%d Retries=%d, want 1/>=1", stats.DeadEndpoints, stats.Retries)
	}
	if m.Metrics().SimulationsRun != 4 {
		t.Errorf("healthy worker ran %d simulations, want all 4", m.Metrics().SimulationsRun)
	}
}

// TestDispatchServesLocalCacheFirst: a resumed campaign whose results
// are all cached locally must not touch the fleet at all.
func TestDispatchServesLocalCacheFirst(t *testing.T) {
	jobs := []sweep.Job{
		{Label: "a", Config: tinyCfg("lbm", 5)},
		{Label: "b", Config: tinyCfg("mcf", 6)},
	}
	cache, err := sweep.OpenCache(filepath.Join(t.TempDir(), "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(context.Background(), jobs, sweep.Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	ts, m := startWorker(t, server.ManagerConfig{Workers: 1})
	var stats Stats
	var events []sweep.Event
	got, err := Run(context.Background(), jobs, Options{
		Endpoints: []string{ts.URL},
		Cache:     cache,
		Stats:     &stats,
		Progress:  func(ev sweep.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if gb, wb := mustJSON(t, got), mustJSON(t, want); string(gb) != string(wb) {
		t.Error("cache-served results differ")
	}
	if mt := m.Metrics(); mt.JobsSubmitted != 0 {
		t.Errorf("fleet received %d submissions for a fully cached campaign", mt.JobsSubmitted)
	}
	if stats.CacheHits != 2 || stats.Simulations != 0 {
		t.Errorf("CacheHits=%d Simulations=%d, want 2/0", stats.CacheHits, stats.Simulations)
	}
	for _, ev := range events {
		if !ev.Cached {
			t.Errorf("event %q not marked cached", ev.Label)
		}
	}
}

// TestDispatchTraceConfigs covers both trace-file paths: rejection with
// a clear error when no fleet worker shares the files, and execution on
// local workers / root-sharing endpoints when one does.
func TestDispatchTraceConfigs(t *testing.T) {
	shared := t.TempDir()
	path := filepath.Join(shared, "core0.trace")
	var blob []byte
	for i := 0; i < 64; i++ {
		blob = append(blob, []byte(fmt.Sprintf("%d %#x\n", i%3, uint64(i)*64))...)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg("lbm", 1)
	cfg.TraceFiles = []string{path}
	jobs := []sweep.Job{{Label: "trace", Config: cfg}}
	want, err := sweep.Run(context.Background(), jobs, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// No shared root, no local workers: reject before running anything.
	plain, plainM := startWorker(t, server.ManagerConfig{Workers: 1})
	_, err = Run(context.Background(), jobs, Options{Endpoints: []string{plain.URL}})
	if err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("trace config with no eligible worker: err = %v", err)
	}
	if plainM.Metrics().JobsSubmitted != 0 {
		t.Error("ineligible trace config reached the fleet")
	}

	// Local workers can always run it.
	got, err := Run(context.Background(), jobs, Options{Endpoints: []string{plain.URL}, LocalWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if gb, wb := mustJSON(t, got), mustJSON(t, want); string(gb) != string(wb) {
		t.Error("locally executed trace config differs from direct run")
	}

	// An endpoint advertising a covering shared root runs it remotely.
	rooted, rootedM := startWorker(t, server.ManagerConfig{Workers: 1, TraceRoot: shared})
	got, err = Run(context.Background(), jobs, Options{Endpoints: []string{rooted.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if gb, wb := mustJSON(t, got), mustJSON(t, want); string(gb) != string(wb) {
		t.Error("remotely executed trace config differs from direct run")
	}
	if rootedM.Metrics().SimulationsRun != 1 {
		t.Errorf("root-sharing worker ran %d simulations, want 1", rootedM.Metrics().SimulationsRun)
	}
}

// TestDispatchSimulationFailure: a deterministic simulation error is a
// campaign failure carrying the input position — never retried on
// other workers.
func TestDispatchSimulationFailure(t *testing.T) {
	ts, _ := startWorker(t, server.ManagerConfig{Workers: 2})
	bad := tinyCfg("lbm", 1)
	bad.Workloads = []string{"no-such-workload"}
	jobs := []sweep.Job{
		{Label: "good", Config: tinyCfg("lbm", 1)},
		{Label: "bad", Config: bad},
	}
	var stats Stats
	_, err := Run(context.Background(), jobs, Options{
		Endpoints: []string{ts.URL},
		Stats:     &stats,
	})
	var jerr *sweep.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("error %v is not a *sweep.JobError", err)
	}
	if jerr.Index != 1 || jerr.Label != "bad" {
		t.Errorf("JobError = index %d label %q, want 1/bad", jerr.Index, jerr.Label)
	}
	if stats.Retries != 0 {
		t.Errorf("deterministic failure was retried %d times", stats.Retries)
	}
}

// TestDispatchContextCancel: cancelling the campaign context stops
// dispatch and surfaces ctx.Err().
func TestDispatchContextCancel(t *testing.T) {
	ts, _ := startWorker(t, server.ManagerConfig{Workers: 1})
	var jobs []sweep.Job
	for seed := uint64(0); seed < 8; seed++ {
		cfg := tinyCfg("mcf", seed)
		cfg.RunInstructions = 4_000_000 // hundreds of ms each
		jobs = append(jobs, sweep.Job{Label: "slow", Config: cfg})
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := Run(ctx, jobs, Options{Endpoints: []string{ts.URL}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
}

// TestSplitEndpoints pins the shared -servers/-peers flag parsing:
// whitespace-tolerant, empty entries dropped.
func TestSplitEndpoints(t *testing.T) {
	got := SplitEndpoints(" a:8344, b:8344 ,,c ")
	want := []string{"a:8344", "b:8344", "c"}
	if len(got) != len(want) {
		t.Fatalf("SplitEndpoints = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SplitEndpoints[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if got := SplitEndpoints(""); got != nil {
		t.Errorf("SplitEndpoints(\"\") = %v, want nil", got)
	}
}

// TestDispatchNoUsableWorkers: a fleet where every endpoint fails its
// probe and no local pool exists is an immediate, explicit error.
func TestDispatchNoUsableWorkers(t *testing.T) {
	_, err := Run(context.Background(), []sweep.Job{{Label: "x", Config: tinyCfg("lbm", 1)}}, Options{
		Endpoints:    []string{"http://127.0.0.1:1"},
		ProbeTimeout: 500 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "no usable workers") {
		t.Fatalf("err = %v, want a no-usable-workers error", err)
	}
}
