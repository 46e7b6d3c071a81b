package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// gatedDaemon is a daemon whose only execution slot is a fake peer that
// holds every job running until release is called: a blocker whose end
// the test controls, so long-poll tests need no sleeps. parked receives
// one value each time a long-poll blocks; exited one each time a
// request carrying wait= leaves the handler.
type gatedDaemon struct {
	*testDaemon
	release func()
	parked  chan struct{}
	exited  chan struct{}
}

func startGatedDaemon(t *testing.T, cfg ManagerConfig) *gatedDaemon {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	held := simulatingRemote("gated", 1, nil)
	peer := &remoteFunc{name: "gated", slots: 1, run: func(ctx context.Context, spec JobSpec) (JobStatus, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		}
		return held.run(ctx, spec)
	}}
	cfg.Workers = NoLocalWorkers
	cfg.Remotes = []Remote{peer}
	m := NewManager(cfg)
	// Buffers exceed the handful of long-polls any test makes, so the
	// hooks never block a handler the test has stopped watching.
	g := &gatedDaemon{
		release: func() { once.Do(func() { close(gate) }) },
		parked:  make(chan struct{}, 16),
		exited:  make(chan struct{}, 16),
	}
	// Set before the HTTP server starts, so handler goroutines see it.
	m.parkedHook = func() { g.parked <- struct{}{} }
	api := New(m)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.ServeHTTP(w, r)
		if r.URL.Query().Has("wait") {
			g.exited <- struct{}{}
		}
	}))
	g.testDaemon = &testDaemon{ts: ts, m: m}
	t.Cleanup(g.stop)
	t.Cleanup(g.release) // runs first: Drain waits for the held job
	return g
}

// await fails the test unless ch delivers within a bound well below
// the 30 s waits the tests ask for; it never paces the code under test.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(15 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// getAsync issues a GET on its own goroutine and delivers the status
// code (0 on a transport error) once the reply is decoded into out.
// Unlike doJSON it never touches t, so it is safe off the test
// goroutine.
func getAsync(url, token string, out any) <-chan int {
	code := make(chan int, 1)
	go func() {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			code <- 0
			return
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			code <- 0
			return
		}
		defer resp.Body.Close()
		if out != nil {
			_ = json.NewDecoder(resp.Body).Decode(out)
		}
		code <- resp.StatusCode
	}()
	return code
}

// answered returns the status code of a long-poll whose job has
// settled. The bound sits well below the 30 s wait, so a waiter that
// was not woken — and would only answer when its wait ran out — fails.
func answered(t *testing.T, code <-chan int) int {
	t.Helper()
	select {
	case c := <-code:
		return c
	case <-time.After(15 * time.Second):
		t.Fatal("long-poll still held 15 s after its job settled")
		return 0
	}
}

// TestLongPollWakesOnFinish parks a detail and a list long-poll on a
// running job; both must answer with the terminal status once the job
// finishes, and not before — the job cannot finish until release.
func TestLongPollWakesOnFinish(t *testing.T) {
	g := startGatedDaemon(t, ManagerConfig{})
	id := submitHTTP(t, g.testDaemon, JobSpec{Config: tinyCfg(501)})[0].ID

	var st JobStatus
	var list SubmitResponse
	detailCode := getAsync(g.url("/v1/jobs/"+id+"?wait=30s"), "", &st)
	listCode := getAsync(g.url("/v1/jobs?ids="+id+"&wait=30s"), "", &list)
	await(t, g.parked, "the first long-poll to park")
	await(t, g.parked, "the second long-poll to park")
	g.release()

	if code := answered(t, detailCode); code != http.StatusOK || st.State != StateDone || st.Result == nil {
		t.Errorf("detail long-poll answered HTTP %d, %s (result %v); want done with result", code, st.State, st.Result != nil)
	}
	if want := localRun(t, tinyCfg(501)); st.Result != nil && !reflect.DeepEqual(*st.Result, want) {
		t.Error("long-polled result differs from a local run")
	}
	if code := answered(t, listCode); code != http.StatusOK || len(list.Jobs) != 1 || list.Jobs[0].ID != id ||
		list.Jobs[0].State != StateDone || list.Jobs[0].Result != nil {
		t.Errorf("list long-poll answered HTTP %d, %+v; want %s done without a result payload", code, list.Jobs, id)
	}
}

// TestLongPollEvictionWakesListWaiter: with a retention of one terminal
// job, the running job is evicted the moment it finishes (a canceled
// job is younger). The parked list waiter must wake and leave it out.
func TestLongPollEvictionWakesListWaiter(t *testing.T) {
	g := startGatedDaemon(t, ManagerConfig{Retention: 1})
	running := submitHTTP(t, g.testDaemon, JobSpec{Config: tinyCfg(502)})[0].ID
	queued := submitHTTP(t, g.testDaemon, JobSpec{Config: tinyCfg(503)})[0].ID
	if code := doJSON(t, http.MethodDelete, g.url("/v1/jobs/"+queued), nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}

	var list SubmitResponse
	listCode := getAsync(g.url("/v1/jobs?ids="+running+"&wait=30s"), "", &list)
	await(t, g.parked, "the list long-poll to park")
	g.release()

	if code := answered(t, listCode); code != http.StatusOK || len(list.Jobs) != 0 {
		t.Errorf("list long-poll answered HTTP %d, %+v; want the evicted job left out", code, list.Jobs)
	}
	if code := doJSON(t, http.MethodGet, g.url("/v1/jobs/"+running+"?wait=30s"), nil, nil); code != http.StatusNotFound {
		t.Errorf("detail long-poll of the evicted job: HTTP %d, want 404", code)
	}
}

// TestLongPollClientDisconnectEndsHandler: a client that gives up
// (a hedge loser, a cancelled campaign) frees the handler at once,
// while the job it waited on is still running.
func TestLongPollClientDisconnectEndsHandler(t *testing.T) {
	g := startGatedDaemon(t, ManagerConfig{})
	id := submitHTTP(t, g.testDaemon, JobSpec{Config: tinyCfg(504)})[0].ID

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.url("/v1/jobs/"+id+"?wait=30s"), nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	await(t, g.parked, "the long-poll to park")
	cancel()
	await(t, g.exited, "the handler to return after the disconnect")
	if st, err := g.m.Job(id); err != nil || st.State.Terminal() {
		t.Fatalf("job is %s (%v); the handler must have ended on the disconnect, not on completion", st.State, err)
	}
}

// TestParseWait pins the wait= grammar: Go durations, capped at
// MaxLongPoll; anything else is rejected.
func TestParseWait(t *testing.T) {
	for raw, want := range map[string]time.Duration{
		"":      0,
		"0s":    0,
		"250ms": 250 * time.Millisecond,
		"25s":   25 * time.Second,
		"30s":   MaxLongPoll,
		"31s":   MaxLongPoll,
		"1h":    MaxLongPoll,
	} {
		r := httptest.NewRequest(http.MethodGet, "/v1/jobs/x?wait="+url.QueryEscape(raw), nil)
		got, err := parseWait(r)
		if err != nil || got != want {
			t.Errorf("wait=%q: got %v, %v; want %v", raw, got, err, want)
		}
	}
	for _, raw := range []string{"abc", "25", "-1s", "1x"} {
		r := httptest.NewRequest(http.MethodGet, "/v1/jobs/x?wait="+url.QueryEscape(raw), nil)
		if _, err := parseWait(r); err == nil {
			t.Errorf("wait=%q accepted", raw)
		}
	}
}

// TestLongPollCappedWaitAnswers: a wait beyond the cap is accepted
// (not rejected) and still answers a finished job at once.
func TestLongPollCappedWaitAnswers(t *testing.T) {
	d := startDaemon(t, "", 1, 16)
	id := submitHTTP(t, d, JobSpec{Config: tinyCfg(505)})[0].ID
	pollDone(t, d, id)
	var st JobStatus
	if code := doJSON(t, http.MethodGet, d.url("/v1/jobs/"+id+"?wait=1h"), nil, &st); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("wait=1h on a done job: HTTP %d, state %s", code, st.State)
	}
}

// TestLongPollMalformedWait answers 400 on both status routes, and on a
// list wait that names no jobs.
func TestLongPollMalformedWait(t *testing.T) {
	d := startDaemon(t, "", 1, 16)
	id := submitHTTP(t, d, JobSpec{Config: tinyCfg(506)})[0].ID
	for _, path := range []string{
		"/v1/jobs/" + id + "?wait=soon",
		"/v1/jobs/" + id + "?wait=-5s",
		"/v1/jobs?ids=" + id + "&wait=soon",
		"/v1/jobs?wait=5s",
	} {
		if code := doJSON(t, http.MethodGet, d.url(path), nil, nil); code != http.StatusBadRequest {
			t.Errorf("GET %s: HTTP %d, want 400", path, code)
		}
	}
	pollDone(t, d, id)
}

// TestLongPollTenantVisibility: another tenant's job reads exactly as
// it does without wait= — 404 on the detail route, absent from the
// list — and the wait does not hold, since for that caller the job is
// gone.
func TestLongPollTenantVisibility(t *testing.T) {
	reg := newTestRegistry(t, Tenant{Name: "alice", Token: "tok-a"}, Tenant{Name: "bob", Token: "tok-b"})
	g := startGatedDaemon(t, ManagerConfig{Tenants: reg})
	// Every request here must answer at once: bob's waits have nothing
	// to wait for, since for him the job does not exist.
	get := func(token, path string, out any) int { return answered(t, getAsync(g.url(path), token, out)) }
	sts, err := g.m.SubmitAs(reg.Lookup("alice"), []JobSpec{{Config: tinyCfg(507)}})
	if err != nil {
		t.Fatal(err)
	}
	id := sts[0].ID

	for _, q := range []string{"", "?wait=30s"} {
		if code := get("tok-b", "/v1/jobs/"+id+q, nil); code != http.StatusNotFound {
			t.Errorf("bob GET /v1/jobs/%s%s: HTTP %d, want 404", id, q, code)
		}
	}
	for _, q := range []string{"", "&wait=30s"} {
		var resp SubmitResponse
		if code := get("tok-b", "/v1/jobs?ids="+id+q, &resp); code != http.StatusOK || len(resp.Jobs) != 0 {
			t.Errorf("bob list ids=%s%s: HTTP %d, %d jobs; want 200 and none", id, q, code, len(resp.Jobs))
		}
	}
	// Alice's own job is live: without wait she reads it at once, with
	// wait her request holds until it finishes.
	var live JobStatus
	if code := get("tok-a", "/v1/jobs/"+id, &live); code != http.StatusOK || live.State.Terminal() {
		t.Fatalf("alice GET without wait: HTTP %d, state %s", code, live.State)
	}
	var st JobStatus
	code := getAsync(g.url("/v1/jobs/"+id+"?wait=30s"), "tok-a", &st)
	await(t, g.parked, "alice's long-poll to park")
	g.release()
	if answered(t, code) != http.StatusOK || st.State != StateDone || st.Result == nil {
		t.Errorf("alice's long-poll answered %s (result %v), want done with result", st.State, st.Result != nil)
	}
	if code := get("tok-b", "/v1/jobs/"+id+"?wait=30s", nil); code != http.StatusNotFound {
		t.Errorf("bob long-poll of alice's finished job: HTTP %d, want 404", code)
	}
}

// TestStageHistograms runs a small campaign and checks /metrics' stage
// histograms bucket by bucket: queue wait and run against each job's
// own timestamps, finished-to-served counted once per job however
// often its terminal status is served; a canceled job counts in no
// stage.
func TestStageHistograms(t *testing.T) {
	d := startDaemon(t, "", 1, 16)
	// The blocker holds the only worker, so the job canceled last is
	// still queued when the cancel lands.
	ids := []string{submitHTTP(t, d, JobSpec{Config: blockerCfg()})[0].ID}
	for seed := uint64(510); seed < 514; seed++ {
		ids = append(ids, submitHTTP(t, d, JobSpec{Config: tinyCfg(seed)})[0].ID)
	}
	canceled := submitHTTP(t, d, JobSpec{Config: tinyCfg(520)})[0].ID
	if code := doJSON(t, http.MethodDelete, d.url("/v1/jobs/"+canceled), nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	for _, id := range ids {
		pollDone(t, d, id)
		pollDone(t, d, id) // a second serve must not count again
	}

	bucket := func(d time.Duration) int {
		return sort.SearchFloat64s(stageBoundsMs[:], float64(d)/float64(time.Millisecond))
	}
	wantQueue := make([]uint64, len(stageBoundsMs)+1)
	wantRun := make([]uint64, len(stageBoundsMs)+1)
	var runSum time.Duration
	for _, id := range ids {
		st, err := d.m.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		wantQueue[bucket(st.StartedAt.Sub(st.SubmittedAt))]++
		run := st.FinishedAt.Sub(*st.StartedAt)
		wantRun[bucket(run)]++
		runSum += run
	}

	stages := d.m.Metrics().Stages
	for name, c := range map[string]struct {
		got  LatencyHistogram
		want []uint64
	}{
		"queue_wait": {stages.QueueWait, wantQueue},
		"run":        {stages.Run, wantRun},
	} {
		if !reflect.DeepEqual(c.got.Counts, c.want) {
			t.Errorf("%s counts = %v, want %v", name, c.got.Counts, c.want)
		}
		if c.got.Count != uint64(len(ids)) || len(c.got.BoundsMs) != len(stageBoundsMs) {
			t.Errorf("%s: count %d over %d bounds, want %d over %d", name, c.got.Count, len(c.got.BoundsMs), len(ids), len(stageBoundsMs))
		}
	}
	served := stages.FinishedToServed
	var sum uint64
	for _, n := range served.Counts {
		sum += n
	}
	if served.Count != uint64(len(ids)) || sum != served.Count {
		t.Errorf("finished_to_served: count %d, bucket sum %d; want %d", served.Count, sum, len(ids))
	}
	if want := float64(runSum) / float64(time.Millisecond); stages.Run.SumMs != want {
		t.Errorf("run sum_ms = %v, want %v", stages.Run.SumMs, want)
	}
}
