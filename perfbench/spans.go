package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// Routes a span is labelled with.
const (
	routeSubmit = "submit" // POST /v1/jobs
	routeStatus = "status" // GET /v1/jobs and GET /v1/jobs/{id}
	routeResult = "result" // GET /v1/results/{key}
	routeOther  = "other"
)

// route labels one ccsimd API request.
func route(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/jobs":
		return routeSubmit
	case method == http.MethodGet && (path == "/v1/jobs" ||
		strings.HasPrefix(path, "/v1/jobs/") && strings.Count(path, "/") == 3):
		return routeStatus
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/results/"):
		return routeResult
	}
	return routeOther
}

// jobRef is one job a reply reported on.
type jobRef struct {
	ID       string
	Terminal bool
}

// span is one HTTP request, from hand-off to the transport until its
// response body was read to the end or closed.
type span struct {
	Route      string
	Host       string
	Start, End time.Time
	Bytes      int64
	Jobs       []jobRef // submit and status replies only
	Err        bool
}

// spanTransport records a span per request it carries. Installed as
// http.DefaultTransport, it sees every request the ccsimd client makes.
type spanTransport struct {
	base http.RoundTripper

	mu    sync.Mutex
	spans []span
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := span{Route: route(req.Method, req.URL.Path), Host: req.URL.Host, Start: time.Now()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.End, sp.Err = time.Now(), true
		t.record(sp)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, sp: sp, status: resp.StatusCode}
	return resp, nil
}

func (t *spanTransport) record(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// take returns the spans recorded so far and starts a new list.
func (t *spanTransport) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// spanBody counts a response body's bytes and ends its span at EOF or
// Close, whichever comes first. Submit and status bodies are kept so
// the span can name the jobs they reported on.
type spanBody struct {
	io.ReadCloser
	t      *spanTransport
	sp     span
	status int
	buf    bytes.Buffer
	done   bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.Bytes += int64(n)
	if b.sp.Route == routeSubmit || b.sp.Route == routeStatus {
		b.buf.Write(p[:n])
	}
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *spanBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.sp.End = time.Now()
	b.sp.Err = b.status >= 300
	if b.buf.Len() > 0 && !b.sp.Err {
		b.sp.Jobs = jobsIn(b.buf.Bytes())
	}
	b.t.record(b.sp)
}

// jobsIn reads the job states out of a submit, list or job reply: a
// {"jobs": [...]} envelope or one JobStatus.
func jobsIn(body []byte) []jobRef {
	var reply struct {
		server.JobStatus
		Jobs []server.JobStatus `json:"jobs"`
	}
	if json.Unmarshal(body, &reply) != nil {
		return nil
	}
	if reply.ID != "" {
		reply.Jobs = append(reply.Jobs, reply.JobStatus)
	}
	refs := make([]jobRef, len(reply.Jobs))
	for i, st := range reply.Jobs {
		refs[i] = jobRef{ID: st.ID, Terminal: st.State.Terminal()}
	}
	return refs
}
