package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// testDaemon is one daemon instance under test: HTTP front end plus
// the manager behind it.
type testDaemon struct {
	ts *httptest.Server
	m  *Manager
}

func startDaemon(t *testing.T, cachePath string, workers, queue int) *testDaemon {
	t.Helper()
	var cache *sweep.Cache
	if cachePath != "" {
		var err error
		cache, err = sweep.OpenCache(cachePath)
		if err != nil {
			t.Fatal(err)
		}
	}
	m := NewManager(ManagerConfig{Workers: workers, QueueDepth: queue, Cache: cache})
	d := &testDaemon{ts: httptest.NewServer(New(m)), m: m}
	t.Cleanup(d.stop)
	return d
}

// stop mirrors the ccsimd shutdown order: drain, then close HTTP.
func (d *testDaemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	_ = d.m.Drain(ctx)
	d.ts.Close()
}

func (d *testDaemon) url(path string) string { return d.ts.URL + path }

// doJSON performs one request and decodes the JSON response into out.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(blob) > 0 {
		if err := json.Unmarshal(blob, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, blob, err)
		}
	}
	return resp.StatusCode
}

func submitHTTP(t *testing.T, d *testDaemon, specs ...JobSpec) []JobStatus {
	t.Helper()
	var resp SubmitResponse
	code := doJSON(t, http.MethodPost, d.url("/v1/jobs"), SubmitRequest{Jobs: specs}, &resp)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if len(resp.Jobs) != len(specs) {
		t.Fatalf("submitted %d specs, got %d jobs", len(specs), len(resp.Jobs))
	}
	return resp.Jobs
}

// pollDone long-polls job id until it is terminal and returns its
// final status, failing the test unless it finished done.
func pollDone(t *testing.T, d *testDaemon, id string) JobStatus {
	t.Helper()
	// One long-poll normally suffices; the loop only covers a job that
	// outlives MaxLongPoll on a very slow runner.
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := doJSON(t, http.MethodGet, d.url("/v1/jobs/"+id+"?wait=30s"), nil, &st); code != http.StatusOK {
			t.Fatalf("long-poll %s: HTTP %d", id, code)
		}
		if st.State.Terminal() {
			if st.State != StateDone {
				t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
			}
			return st
		}
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

// localRun computes the reference result the daemon must reproduce.
func localRun(t *testing.T, cfg sim.Config) sim.Result {
	t.Helper()
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHTTPSubmitPollResult is the basic lifecycle: submit one config,
// long-poll to completion, and check the returned result is bit-identical
// to a local run, reachable both via the job and via its
// content-address key.
func TestHTTPSubmitPollResult(t *testing.T) {
	d := startDaemon(t, filepath.Join(t.TempDir(), "results.json"), 2, 16)
	cfg := tinyCfg(21)

	jobs := submitHTTP(t, d, JobSpec{Label: "one", Config: cfg})
	st := pollDone(t, d, jobs[0].ID)
	if st.Result == nil {
		t.Fatal("done job has no result")
	}
	want := localRun(t, cfg)
	if !reflect.DeepEqual(*st.Result, want) {
		t.Error("daemon result differs from local simulation")
	}

	wantKey, err := sweep.Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Key != wantKey {
		t.Errorf("job key %q, want %q", st.Key, wantKey)
	}
	var byKey sim.Result
	if code := doJSON(t, http.MethodGet, d.url("/v1/results/"+st.Key), nil, &byKey); code != http.StatusOK {
		t.Fatalf("result by key: HTTP %d", code)
	}
	if !reflect.DeepEqual(byKey, want) {
		t.Error("content-addressed result differs from local simulation")
	}
	var idx ResultIndex
	if code := doJSON(t, http.MethodGet, d.url("/v1/results"), nil, &idx); code != http.StatusOK {
		t.Fatalf("result index: HTTP %d", code)
	}
	if len(idx.Keys) != 1 || idx.Keys[0] != st.Key {
		t.Errorf("result index = %v, want [%s]", idx.Keys, st.Key)
	}

	// Listings carry the job without the (large) result payload.
	var list SubmitResponse
	if code := doJSON(t, http.MethodGet, d.url("/v1/jobs"), nil, &list); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != jobs[0].ID {
		t.Fatalf("listing = %+v, want the one submitted job", list.Jobs)
	}
	if list.Jobs[0].Result != nil {
		t.Error("listing includes result payloads")
	}

	// The ?ids= filter returns only the named jobs, silently omitting
	// unknown (or evicted) IDs.
	var filtered SubmitResponse
	if code := doJSON(t, http.MethodGet, d.url("/v1/jobs?ids="+jobs[0].ID+",job-zzzzzz"), nil, &filtered); code != http.StatusOK {
		t.Fatalf("filtered list: HTTP %d", code)
	}
	if len(filtered.Jobs) != 1 || filtered.Jobs[0].ID != jobs[0].ID {
		t.Fatalf("filtered listing = %+v, want only %s", filtered.Jobs, jobs[0].ID)
	}
}

// TestHTTPAcceptance is the PR's acceptance scenario: 8 concurrent
// submissions of an identical config run exactly one simulation and
// all callers receive bit-identical results; a restarted daemon then
// serves the same config from the persisted cache without
// re-simulating.
func TestHTTPAcceptance(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "results.json")
	d1 := startDaemon(t, cachePath, 4, 32)
	cfg := tinyCfg(1234)

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			blob, err := json.Marshal(SubmitRequest{Jobs: []JobSpec{{Label: fmt.Sprintf("client-%d", i), Config: cfg}}})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(d1.url("/v1/jobs"), "application/json", bytes.NewReader(blob))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var sr SubmitResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != http.StatusAccepted {
				t.Errorf("client %d: HTTP %d (%v)", i, resp.StatusCode, err)
				return
			}
			ids[i] = sr.Jobs[0].ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	want := localRun(t, cfg)
	for i, id := range ids {
		st := pollDone(t, d1, id)
		if st.Result == nil {
			t.Fatalf("caller %d: no result", i)
		}
		if !reflect.DeepEqual(*st.Result, want) {
			t.Fatalf("caller %d received a non-identical result", i)
		}
	}

	var met Metrics
	doJSON(t, http.MethodGet, d1.url("/metrics"), nil, &met)
	if met.SimulationsRun != 1 {
		t.Errorf("simulations_run = %d, want exactly 1 for 8 identical submissions", met.SimulationsRun)
	}
	if met.JobsCompleted != n {
		t.Errorf("jobs_completed = %d, want %d", met.JobsCompleted, n)
	}
	if met.JobsDeduped+met.CacheHits != n-1 {
		t.Errorf("deduped(%d) + cache hits(%d) = %d, want %d", met.JobsDeduped, met.CacheHits, met.JobsDeduped+met.CacheHits, n-1)
	}

	// Restart: a fresh daemon over the same cache file must serve the
	// config instantly from disk, with zero new simulations.
	d1.stop()
	d2 := startDaemon(t, cachePath, 4, 32)
	jobs := submitHTTP(t, d2, JobSpec{Label: "after-restart", Config: cfg})
	st := jobs[0]
	if st.State != StateDone || !st.Cached {
		t.Fatalf("restart submission = state %s cached %v, want an immediate cached done", st.State, st.Cached)
	}
	if st.Result == nil || !reflect.DeepEqual(*st.Result, want) {
		t.Fatal("restarted daemon served a non-identical result")
	}
	var met2 Metrics
	doJSON(t, http.MethodGet, d2.url("/metrics"), nil, &met2)
	if met2.SimulationsRun != 0 {
		t.Errorf("restarted daemon ran %d simulations, want 0", met2.SimulationsRun)
	}
	if met2.CacheHits != 1 {
		t.Errorf("restarted daemon cache_hits = %d, want 1", met2.CacheHits)
	}
}

// sseEvent is one parsed Server-Sent Event frame.
type sseEvent struct {
	id    string
	event string
	data  string
}

// readSSE consumes the stream until the "done" event (or EOF),
// returning every frame.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var (
		events []sseEvent
		cur    sseEvent
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
				if cur.event == "done" {
					return events
				}
				cur = sseEvent{}
			}
		}
	}
	return events
}

// TestHTTPSSEStream watches a job that starts queued behind a blocker
// and demands the stream deliver its lifecycle in order — queued,
// running, done-with-result — followed by the done frame.
func TestHTTPSSEStream(t *testing.T) {
	d := startDaemon(t, "", 1, 16)
	blocker := submitHTTP(t, d, JobSpec{Label: "blocker", Config: blockerCfg()})[0]
	target := submitHTTP(t, d, JobSpec{Label: "target", Config: tinyCfg(5)})[0]

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url("/v1/jobs/"+target.ID+"/events"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}

	events := readSSE(t, resp.Body)
	if len(events) == 0 || events[len(events)-1].event != "done" {
		t.Fatalf("stream did not end with a done frame: %+v", events)
	}
	var states []JobState
	var final JobStatus
	for _, ev := range events[:len(events)-1] {
		if ev.event != "status" {
			t.Fatalf("unexpected event %q", ev.event)
		}
		var st JobStatus
		if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
			t.Fatalf("bad status payload %q: %v", ev.data, err)
		}
		states = append(states, st.State)
		final = st
	}
	rank := map[JobState]int{StateQueued: 0, StateRunning: 1, StateDone: 2}
	terminalFrames := 0
	for i, s := range states {
		if i > 0 && rank[s] < rank[states[i-1]] {
			t.Fatalf("states went backwards: %v", states)
		}
		if s.Terminal() {
			terminalFrames++
		}
	}
	if states[0] != StateQueued {
		t.Errorf("first streamed state = %s, want queued (job was behind a blocker)", states[0])
	}
	if final.State != StateDone {
		t.Fatalf("final streamed state = %s, want done", final.State)
	}
	if final.Result == nil {
		t.Error("terminal SSE status carries no result")
	}
	if terminalFrames != 1 {
		t.Errorf("%d terminal status frames (%v), want exactly 1", terminalFrames, states)
	}
	pollDone(t, d, blocker.ID)
}

// TestHTTPSSETerminalJob streams a job that is already finished: the
// full lifecycle replays from the event history (ids 1, 2, 3, ...),
// ending in the terminal status with result, then done.
func TestHTTPSSETerminalJob(t *testing.T) {
	d := startDaemon(t, "", 2, 16)
	id := submitHTTP(t, d, JobSpec{Config: tinyCfg(77)})[0].ID
	pollDone(t, d, id)

	resp, err := http.Get(d.url("/v1/jobs/" + id + "/events"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	if len(events) < 2 || events[len(events)-1].event != "done" {
		t.Fatalf("terminal stream = %+v, want status history then done", events)
	}
	for i, ev := range events[:len(events)-1] {
		if ev.event != "status" || ev.id != fmt.Sprint(i+1) {
			t.Fatalf("frame %d = %s id %q, want status id %d", i, ev.event, ev.id, i+1)
		}
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(events[len(events)-2].data), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Result == nil {
		t.Errorf("final replayed status = %s (result %v), want done with result", st.State, st.Result != nil)
	}

	// Resuming past the history replays nothing: just the done frame.
	req, _ := http.NewRequest(http.MethodGet, d.url("/v1/jobs/"+id+"/events"), nil)
	req.Header.Set("Last-Event-ID", events[len(events)-2].id)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	tail := readSSE(t, resp2.Body)
	if len(tail) != 1 || tail[0].event != "done" {
		t.Fatalf("resumed-past-end stream = %+v, want just done", tail)
	}
}

// TestHTTPCancel cancels a queued job over the API.
func TestHTTPCancel(t *testing.T) {
	d := startDaemon(t, "", 1, 16)
	blocker := submitHTTP(t, d, JobSpec{Label: "blocker", Config: blockerCfg()})[0]
	target := submitHTTP(t, d, JobSpec{Label: "target", Config: tinyCfg(9)})[0]

	var st JobStatus
	if code := doJSON(t, http.MethodDelete, d.url("/v1/jobs/"+target.ID), nil, &st); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	if st.State != StateCanceled {
		t.Fatalf("canceled job is %s", st.State)
	}
	if code := doJSON(t, http.MethodDelete, d.url("/v1/jobs/nope"), nil, nil); code != http.StatusNotFound {
		t.Fatalf("cancel unknown: HTTP %d, want 404", code)
	}
	pollDone(t, d, blocker.ID)
	met := d.m.Metrics()
	if met.SimulationsRun != 1 {
		t.Errorf("simulations_run = %d, want 1 (canceled job must not run)", met.SimulationsRun)
	}
}

// TestHTTPErrors covers the handler-level failure statuses.
func TestHTTPErrors(t *testing.T) {
	d := startDaemon(t, "", 1, 16)

	resp, err := http.Post(d.url("/v1/jobs"), "application/json", strings.NewReader("not json{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: HTTP %d, want 400", resp.StatusCode)
	}

	var apiErr struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, http.MethodPost, d.url("/v1/jobs"), map[string]any{}, &apiErr); code != http.StatusBadRequest {
		t.Errorf("empty submission: HTTP %d, want 400", code)
	}
	if apiErr.Error == "" {
		t.Error("error response carries no error message")
	}
	bad := tinyCfg(1)
	bad.Workloads = nil
	if code := doJSON(t, http.MethodPost, d.url("/v1/jobs"), SubmitRequest{Jobs: []JobSpec{{Config: bad}}}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid config: HTTP %d, want 400", code)
	}
	if code := doJSON(t, http.MethodGet, d.url("/v1/jobs/job-000042"), nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
	if code := doJSON(t, http.MethodGet, d.url("/v1/results/deadbeef"), nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown result on cacheless daemon: HTTP %d, want 404", code)
	}
}

// TestHTTPQueueFull maps ErrQueueFull to 429.
func TestHTTPQueueFull(t *testing.T) {
	d := startDaemon(t, "", 1, 1)
	blocker := submitHTTP(t, d, JobSpec{Config: blockerCfg()})[0]
	// Wait until the worker picked the blocker up so the queue is free.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatus
		doJSON(t, http.MethodGet, d.url("/v1/jobs/"+blocker.ID), nil, &st)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	submitHTTP(t, d, JobSpec{Config: tinyCfg(50)}) // fills the queue
	if code := doJSON(t, http.MethodPost, d.url("/v1/jobs"), SubmitRequest{Jobs: []JobSpec{{Config: tinyCfg(51)}}}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("overflow: HTTP %d, want 429", code)
	}
}

// TestHTTPHealthAndMetrics sanity-checks the operational endpoints.
func TestHTTPHealthAndMetrics(t *testing.T) {
	d := startDaemon(t, filepath.Join(t.TempDir(), "results.json"), 2, 16)
	var h Health
	if code := doJSON(t, http.MethodGet, d.url("/healthz"), nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if h.Status != "ok" || h.Version == "" {
		t.Errorf("healthz = %+v", h)
	}
	id := submitHTTP(t, d, JobSpec{Config: tinyCfg(60)})[0].ID
	pollDone(t, d, id)
	var met Metrics
	if code := doJSON(t, http.MethodGet, d.url("/metrics"), nil, &met); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if met.JobsSubmitted != 1 || met.JobsCompleted != 1 || met.SimulationsRun != 1 {
		t.Errorf("metrics = %+v", met)
	}
	if met.QueueCapacity != 16 {
		t.Errorf("queue_capacity = %d, want 16", met.QueueCapacity)
	}
	if met.CacheEntries != 1 {
		t.Errorf("cache_entries = %d, want 1", met.CacheEntries)
	}

	var ready Health
	if code := doJSON(t, http.MethodGet, d.url("/readyz"), nil, &ready); code != http.StatusOK || ready.Status != "ok" {
		t.Errorf("readyz = HTTP %d %+v, want 200 ok", code, ready)
	}

	// While draining, readiness must fail (stop routing new clients)
	// but liveness must NOT (a liveness probe killing the daemon would
	// abort the very drain it is waiting for).
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := d.m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, http.MethodGet, d.url("/readyz"), nil, &ready); code != http.StatusServiceUnavailable || ready.Status != "draining" {
		t.Errorf("draining readyz = HTTP %d %+v, want 503 draining", code, ready)
	}
	if code := doJSON(t, http.MethodGet, d.url("/healthz"), nil, &h); code != http.StatusOK {
		t.Errorf("draining healthz: HTTP %d, want 200", code)
	}
	if h.Status != "draining" {
		t.Errorf("draining healthz status = %q", h.Status)
	}
}

// TestHTTPSingleSpecForm accepts the inlined single-job body shape.
func TestHTTPSingleSpecForm(t *testing.T) {
	d := startDaemon(t, "", 2, 16)
	body := map[string]any{"label": "inline", "config": tinyCfg(70)}
	var resp SubmitResponse
	if code := doJSON(t, http.MethodPost, d.url("/v1/jobs"), body, &resp); code != http.StatusAccepted {
		t.Fatalf("single-form submit: HTTP %d", code)
	}
	if len(resp.Jobs) != 1 || resp.Jobs[0].Label != "inline" {
		t.Fatalf("single-form response = %+v", resp.Jobs)
	}
	pollDone(t, d, resp.Jobs[0].ID)
}
