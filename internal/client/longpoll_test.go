package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sweep"
)

// routeCounter counts the requests a client sends, by method and path.
type routeCounter struct {
	base http.RoundTripper
	mu   sync.Mutex
	seen []string // "GET /v1/jobs/job-000001?wait=25s", ...
}

func (r *routeCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	line := req.Method + " " + req.URL.Path
	if req.URL.RawQuery != "" {
		line += "?" + req.URL.RawQuery
	}
	r.mu.Lock()
	r.seen = append(r.seen, line)
	r.mu.Unlock()
	return r.base.RoundTrip(req)
}

// count returns how many recorded requests start with prefix and
// contain every one of parts.
func (r *routeCounter) count(prefix string, parts ...string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
next:
	for _, line := range r.seen {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		for _, p := range parts {
			if !strings.Contains(line, p) {
				continue next
			}
		}
		n++
	}
	return n
}

// TestRunJobOneLongPoll: RunJob is one submit plus one long-poll of the
// job's status route — the daemon holds the request until the job is
// done, so no second status request is ever needed.
func TestRunJobOneLongPoll(t *testing.T) {
	c, _ := startDaemon(t, "")
	rc := &routeCounter{base: http.DefaultTransport}
	c.SetTransport(rc)
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := c.RunJob(context.Background(), server.JobSpec{Config: tinyCfg("mcf", 900+seed)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := rc.count("POST /v1/jobs"); n != 3 {
		t.Errorf("%d submits for 3 jobs, want 3", n)
	}
	if n := rc.count("GET /v1/jobs/", "wait=25s"); n != 3 || len(rc.seen) != 6 {
		t.Errorf("%d status long-polls among %d requests (%v), want 3 of 6", n, len(rc.seen), rc.seen)
	}
}

// TestRunSweepLongPolls: every status request of a sweep is either a
// long-poll of the ID-filtered list or the detail fetch of a job that
// list reported terminal — one per job.
func TestRunSweepLongPolls(t *testing.T) {
	c, _ := startDaemon(t, filepath.Join(t.TempDir(), "results.json"))
	rc := &routeCounter{base: http.DefaultTransport}
	c.SetTransport(rc)
	var jobs []sweep.Job
	for seed := uint64(1); seed <= 5; seed++ {
		jobs = append(jobs, sweep.Job{Config: tinyCfg("lbm", 910+seed)})
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
		t.Error("long-polled sweep differs from a local sweep")
	}
	lists := rc.count("GET /v1/jobs?", "ids=", "wait=25s")
	details := rc.count("GET /v1/jobs/")
	if details != len(jobs) || lists < 1 || lists > len(jobs) {
		t.Errorf("%d list long-polls and %d detail fetches for %d jobs, want 1..%d and %d",
			lists, details, len(jobs), len(jobs), len(jobs))
	}
	if n := rc.count("GET"); n != lists+details {
		t.Errorf("stray GETs: %v", rc.seen)
	}
}

// TestWaitWithoutHold: a daemon that answers a long-poll at once
// without holding it (one that predates wait=) still serves Wait, which
// backs off between passes instead of failing.
func TestWaitWithoutHold(t *testing.T) {
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		state := server.StateRunning
		if polls.Add(1) > 3 {
			state = server.StateDone
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":"job-1","state":"` + string(state) + `"}`))
	}))
	defer ts.Close()
	c := New(ts.URL)
	c.PollInterval = time.Millisecond
	st, err := c.Wait(context.Background(), "job-1")
	if err != nil || st.State != server.StateDone {
		t.Fatalf("Wait = %s, %v; want done", st.State, err)
	}
	if n := polls.Load(); n != 4 {
		t.Errorf("%d status requests, want 4", n)
	}
}
