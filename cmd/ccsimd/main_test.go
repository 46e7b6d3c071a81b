package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// syncBuffer is a bytes.Buffer safe for the writer (the daemon
// goroutine) and reader (the test) to share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if code := run(context.Background(), []string{"-version"}, &out, io.Discard); code != 0 {
		t.Fatalf("-version exited %d", code)
	}
	if !strings.HasPrefix(out.String(), "ccsimd ") {
		t.Errorf("version output %q", out.String())
	}
}

// TestBadFlag pins the usage errors that exit 2 before the daemon
// starts: undefined flags (including the removed -peers) and negative
// worker counts.
func TestBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-peers", "x"},
	} {
		if code := run(context.Background(), args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
}

// TestPureFrontNeedsPeers: a negative worker count is a usage error,
// and so is pairing it with -peers, since the daemon no longer has a
// dispatch-only front mode.
func TestPureFrontNeedsPeers(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "-1"},
		{"-workers", "-7"},
		{"-workers", "-1", "-peers", "http://127.0.0.1:1"},
	} {
		if code := run(context.Background(), args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
}

// startDaemon boots the daemon via run() with extra args and returns
// its base URL plus a shutdown func that asserts a clean exit.
func startDaemon(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-grace", "60s"}, args...), io.Discard, &stderr)
	}()
	re := regexp.MustCompile(`listening on (http://[^\s]+)`)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := re.FindStringSubmatch(stderr.String()); m != nil {
			return m[1], func() {
				cancel()
				select {
				case code := <-done:
					if code != 0 {
						t.Errorf("daemon exited %d; stderr:\n%s", code, stderr.String())
					}
				case <-time.After(90 * time.Second):
					t.Errorf("daemon never shut down; stderr:\n%s", stderr.String())
				}
			}
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never reported its address; stderr:\n%s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAnalysisCampaign drives the observability surface end to end: a
// quick two-mechanism campaign with the perf analyzer enabled runs on
// a real daemon, each job's /v1/analysis/{id} report must exist and
// its epoch timelines must sum to the result's own row-outcome stats,
// the fleet aggregates must appear in /metrics, and /dashboard must
// serve the embedded page.
func TestAnalysisCampaign(t *testing.T) {
	base, stop := startDaemon(t, "-results", filepath.Join(t.TempDir(), "results.json"), "-workers", "2")
	defer stop()

	var specs []map[string]any
	for _, mech := range []sim.MechanismKind{sim.Baseline, sim.ChargeCache} {
		cfg := sim.DefaultConfig("lbm")
		cfg.WarmupInstructions = 10_000
		cfg.RunInstructions = 50_000
		cfg.Mechanism = mech
		cfg.Analysis = &analysis.Config{Enabled: true, EpochCycles: 5_000, MaxEpochs: 1024}
		specs = append(specs, map[string]any{"label": mech.String(), "config": cfg})
	}
	blob, err := json.Marshal(map[string]any{"jobs": specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || len(sub.Jobs) != len(specs) {
		t.Fatalf("submit: HTTP %d, %+v", resp.StatusCode, sub)
	}

	for _, j := range sub.Jobs {
		// Poll the job to completion and keep its result stats.
		var res sim.Result
		deadline := time.Now().Add(120 * time.Second)
		for {
			r, err := http.Get(base + "/v1/jobs/" + j.ID)
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				State  string      `json:"state"`
				Error  string      `json:"error"`
				Result *sim.Result `json:"result"`
			}
			if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if st.State == "done" {
				if st.Result == nil {
					t.Fatal("done job has no result")
				}
				res = *st.Result
				break
			}
			if st.State == "failed" || st.State == "canceled" {
				t.Fatalf("job %s: %s", st.State, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatal("job never finished")
			}
			time.Sleep(10 * time.Millisecond)
		}

		r, err := http.Get(base + "/v1/analysis/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		var rep analysis.Report
		if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("analysis %s: HTTP %d", j.ID, r.StatusCode)
		}
		// The acceptance check: per-epoch row outcomes summed over every
		// channel equal the simulation's own controller stats.
		var hits, misses, conflicts uint64
		for _, ch := range rep.Channels {
			if ch.DroppedEpochs > 0 || ch.Clamped > 0 {
				t.Errorf("channel %d dropped %d epochs, clamped %d events at this ring size",
					ch.Channel, ch.DroppedEpochs, ch.Clamped)
			}
			for _, e := range ch.Epochs {
				hits += e.RowHits
				misses += e.RowMisses
				conflicts += e.RowConflicts
			}
		}
		if hits != res.Controller.RowHits || misses != res.Controller.RowMisses ||
			conflicts != res.Controller.RowConflicts {
			t.Errorf("epoch sums h/m/c = %d/%d/%d, result stats %d/%d/%d",
				hits, misses, conflicts,
				res.Controller.RowHits, res.Controller.RowMisses, res.Controller.RowConflicts)
		}
	}

	// Fleet aggregates: both reports folded into /metrics.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var met struct {
		Analysis *struct {
			Reports    uint64  `json:"reports"`
			RowHitRate float64 `json:"row_hit_rate"`
		} `json:"analysis"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if met.Analysis == nil || met.Analysis.Reports != 2 {
		t.Errorf("fleet analysis block = %+v, want 2 reports", met.Analysis)
	}

	dresp, err := http.Get(base + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("<title>ccsimd dashboard</title>")) {
		t.Errorf("dashboard: HTTP %d, %d bytes", dresp.StatusCode, len(body))
	}
}

// TestServeAndShutdown boots the daemon on a scratch port, hits
// /healthz, and checks a context cancellation (the SIGINT path) shuts
// it down cleanly.
func TestServeAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-results", filepath.Join(t.TempDir(), "results.json"),
			"-grace", "60s",
		}, io.Discard, &stderr)
	}()

	re := regexp.MustCompile(`listening on (http://[^\s]+)`)
	var base string
	deadline := time.Now().Add(30 * time.Second)
	for base == "" {
		if m := re.FindStringSubmatch(stderr.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; stderr:\n%s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: HTTP %d, %+v", resp.StatusCode, health)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exited %d; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(90 * time.Second):
		t.Fatalf("daemon never shut down; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Errorf("shutdown log missing drain message:\n%s", stderr.String())
	}
}
