package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// writeTestTrace writes a small deterministic trace file and returns
// its path.
func writeTestTrace(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "core0.trace")
	var blob []byte
	for i := 0; i < 64; i++ {
		blob = append(blob, []byte(fmt.Sprintf("%d %#x\n", i%3, uint64(i)*64))...)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDispatchWorkerRejoinsMidCampaign is the circuit-breaker rejoin
// contract: a daemon that crashes mid-campaign and restarts must be
// re-probed, rejoin the fleet, and receive new units — not stay marked
// dead for the rest of the campaign. The crashed daemon is the only
// worker eligible for two trace-file units, so the campaign can only
// complete through its rejoin; the restarted incarnation's /metrics
// prove it executed work after coming back.
func TestDispatchWorkerRejoinsMidCampaign(t *testing.T) {
	shared := t.TempDir()
	trace := writeTestTrace(t, shared)

	var jobs []sweep.Job
	for seed := uint64(0); seed < 8; seed++ {
		jobs = append(jobs, sweep.Job{Label: fmt.Sprintf("plain-%d", seed), Config: tinyCfg("lbm", seed)})
	}
	for seed := uint64(0); seed < 2; seed++ {
		cfg := tinyCfg("mcf", 100+seed)
		cfg.TraceFiles = []string{trace}
		jobs = append(jobs, sweep.Job{Label: fmt.Sprintf("trace-%d", seed), Config: cfg})
	}
	distinct := distinctKeys(t, jobs)
	want, err := sweep.Run(context.Background(), jobs, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Worker A is healthy throughout but cannot run the trace units.
	aTS, aM := startWorker(t, server.ManagerConfig{Workers: 2, QueueDepth: 32})

	// Worker B crashes on its first job submission — the connection dies
	// mid-request, every open connection is severed, and the address
	// refuses work — then "restarts" 150ms later as a fresh manager (new
	// process state, same address), exactly like a supervised daemon.
	bCfg := server.ManagerConfig{Workers: 2, QueueDepth: 32, TraceRoot: shared}
	b1 := server.NewManager(bCfg)
	h1 := server.New(b1)
	var phase atomic.Int32 // 0 = first incarnation, 1 = down, 2 = restarted
	var restartMu sync.Mutex
	var b2 *server.Manager
	var h2 http.Handler
	restarted := make(chan struct{})
	var bTS *httptest.Server
	bTS = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch phase.Load() {
		case 0:
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/jobs") {
				if phase.CompareAndSwap(0, 1) {
					go func() {
						time.Sleep(150 * time.Millisecond)
						restartMu.Lock()
						b2 = server.NewManager(bCfg)
						h2 = server.New(b2)
						restartMu.Unlock()
						phase.Store(2)
						close(restarted)
					}()
					bTS.CloseClientConnections()
				}
				panic(http.ErrAbortHandler) // no submission ever reaches b1
			}
			h1.ServeHTTP(w, r)
		case 1:
			panic(http.ErrAbortHandler) // dead process: connections reset
		default:
			restartMu.Lock()
			h := h2
			restartMu.Unlock()
			h.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = b1.Drain(ctx)
		restartMu.Lock()
		if b2 != nil {
			_ = b2.Drain(ctx)
		}
		restartMu.Unlock()
		bTS.Close()
	})

	var stats Stats
	got, err := Run(context.Background(), jobs, Options{
		Endpoints:         []string{aTS.URL, bTS.URL},
		ReprobeInterval:   50 * time.Millisecond,
		BreakerProbeLimit: -1, // keep probing: the campaign cannot end without B
		PoisonThreshold:   -1, // failed probes on the trace units are not poison
		Stats:             &stats,
	})
	if err != nil {
		t.Fatalf("campaign failed despite worker restart: %v", err)
	}
	if phase.Load() != 2 {
		t.Fatal("worker B never crashed (campaign too small?)")
	}

	if gb, wb := mustJSON(t, got), mustJSON(t, want); string(gb) != string(wb) {
		t.Error("post-rejoin results are not byte-identical to the local sweep")
	}
	if stats.Rejoins < 1 {
		t.Errorf("stats.Rejoins = %d, want >= 1", stats.Rejoins)
	}
	if stats.Quarantined != 0 {
		t.Errorf("stats.Quarantined = %d, want 0", stats.Quarantined)
	}
	if stats.DeadEndpoints != 0 {
		t.Errorf("stats.DeadEndpoints = %d, want 0 (B rejoined and ended healthy)", stats.DeadEndpoints)
	}

	// The restarted incarnation must have received and executed units:
	// its metrics are the per-worker proof of the rejoin.
	restartMu.Lock()
	bM := b2
	restartMu.Unlock()
	bMetrics := bM.Metrics()
	if bMetrics.JobsSubmitted < 1 {
		t.Errorf("restarted worker received %d submissions, want >= 1", bMetrics.JobsSubmitted)
	}
	if bMetrics.SimulationsRun < 2 {
		t.Errorf("restarted worker ran %d simulations, want >= 2 (both trace units)", bMetrics.SimulationsRun)
	}
	if n := b1.Metrics().JobsSubmitted; n != 0 {
		t.Errorf("crashed incarnation accepted %d submissions after the crash", n)
	}
	if total := aM.Metrics().SimulationsRun + bMetrics.SimulationsRun; total != uint64(distinct) {
		t.Errorf("fleet ran %d simulations for %d distinct configs", total, distinct)
	}
}

// TestDispatchHedgesStragglers: a unit stuck on a stalled worker past
// HedgeAfter gets a second attempt on another worker, the first result
// wins, and the loser is discarded without double-counting simulations
// or indicting the stalled worker's breaker.
func TestDispatchHedgesStragglers(t *testing.T) {
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

	fastTS, _ := startWorker(t, server.ManagerConfig{Workers: 2, QueueDepth: 32})

	// The slow worker stalls its first submission far past the hedge
	// threshold — a straggler, not a crash: the connection stays open.
	slowM := server.NewManager(server.ManagerConfig{Workers: 1, QueueDepth: 32})
	slowH := server.New(slowM)
	var stalledOnce atomic.Bool
	slowTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/jobs") && stalledOnce.CompareAndSwap(false, true) {
			time.Sleep(600 * time.Millisecond)
		}
		slowH.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = slowM.Drain(ctx)
		slowTS.Close()
	})

	var stats Stats
	got, err := Run(context.Background(), jobs, Options{
		Endpoints:  []string{fastTS.URL, slowTS.URL},
		HedgeAfter: 120 * time.Millisecond,
		Stats:      &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stalledOnce.Load() {
		t.Fatal("the slow worker never received a submission to stall")
	}

	if gb, wb := mustJSON(t, got), mustJSON(t, want); string(gb) != string(wb) {
		t.Error("hedged campaign results are not byte-identical to the local sweep")
	}
	if stats.HedgesLaunched < 1 {
		t.Errorf("stats.HedgesLaunched = %d, want >= 1", stats.HedgesLaunched)
	}
	if stats.HedgesWon < 1 {
		t.Errorf("stats.HedgesWon = %d, want >= 1 (the stalled attempt cannot win)", stats.HedgesWon)
	}
	if stats.HedgesWon > stats.HedgesLaunched {
		t.Errorf("HedgesWon (%d) > HedgesLaunched (%d)", stats.HedgesWon, stats.HedgesLaunched)
	}
	// The no-double-count contract: exactly one simulation per distinct
	// config is credited, no matter how many hedges raced.
	if stats.Simulations != len(jobs) {
		t.Errorf("stats.Simulations = %d, want %d", stats.Simulations, len(jobs))
	}
	// A straggler is not a dead daemon: the stall must not have tripped
	// the slow worker's breaker.
	if stats.DeadEndpoints != 0 {
		t.Errorf("stats.DeadEndpoints = %d, want 0 (hedging must not indict the slow worker)", stats.DeadEndpoints)
	}
}

// TestDispatchPoisonQuarantine: a unit whose every attempt kills its
// worker is quarantined after PoisonThreshold crashes instead of
// cycling through re-probes forever.
func TestDispatchPoisonQuarantine(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ok","version":"test","workers":1}`)
			return
		}
		http.Error(w, "crashed", http.StatusInternalServerError)
	}))
	defer broken.Close()

	jobs := []sweep.Job{{Label: "poison", Config: tinyCfg("lbm", 1)}}
	var stats Stats
	_, err := Run(context.Background(), jobs, Options{
		Endpoints:         []string{broken.URL},
		ReprobeInterval:   20 * time.Millisecond,
		BreakerProbeLimit: -1, // quarantine, not probe exhaustion, must end this
		Stats:             &stats,
	})
	var jerr *sweep.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("error %v is not a *sweep.JobError", err)
	}
	if jerr.Index != 0 {
		t.Errorf("JobError.Index = %d, want 0", jerr.Index)
	}
	if !strings.Contains(err.Error(), "quarantined") {
		t.Errorf("error %q does not mention quarantine", err)
	}
	if stats.Quarantined != 1 {
		t.Errorf("stats.Quarantined = %d, want 1", stats.Quarantined)
	}
	if stats.Retries != 3 {
		t.Errorf("stats.Retries = %d, want 3 (the default poison threshold)", stats.Retries)
	}
}

// TestDispatchIneligibleDoesNotConsumeTried pins the satellite contract
// of retry(): an ErrIneligible rejection records permanent
// ineligibility but must not consume the unit's per-worker tried
// budget, feed the worker's breaker, or count toward poison quarantine
// — the worker is healthy, it just cannot see the trace files.
func TestDispatchIneligibleDoesNotConsumeTried(t *testing.T) {
	newDispatcher := func() (*dispatcher, *worker, *unit) {
		u := &unit{
			job:        sweep.Job{Label: "x", Config: tinyCfg("lbm", 1)},
			indices:    []int{0},
			tried:      map[int]bool{},
			ineligible: map[int]bool{},
			holders:    map[int]bool{0: true},
			cancels:    map[int]context.CancelFunc{},
			attempts:   1,
		}
		remote := &worker{id: 0, name: "remote", cli: client.New("http://127.0.0.1:1"), slots: 1,
			breaker: breaker{threshold: 1, reprobe: time.Second, probeLimit: 4}}
		local := &worker{id: 1, name: "local", slots: 1}
		d := &dispatcher{
			ctx:         context.Background(),
			jobs:        []sweep.Job{u.job},
			results:     make([]sim.Result, 1),
			workers:     []*worker{remote, local},
			stats:       &Stats{},
			units:       []*unit{u},
			outstanding: 1,
		}
		d.cond = sync.NewCond(&d.mu)
		return d, remote, u
	}

	// An eligibility rejection: permanent mark, everything else intact.
	d, remote, u := newDispatcher()
	alive := d.retry(remote, u, fmt.Errorf("client: job 0: %w", server.ErrIneligible), false)
	if !alive {
		t.Error("worker retired after an eligibility rejection")
	}
	if u.tried[remote.id] {
		t.Error("ErrIneligible consumed the unit's tried budget")
	}
	if !u.ineligible[remote.id] {
		t.Error("ErrIneligible not recorded as permanent ineligibility")
	}
	if u.crashes != 0 {
		t.Errorf("u.crashes = %d after ErrIneligible, want 0", u.crashes)
	}
	if remote.breaker.state != breakerClosed {
		t.Errorf("breaker state = %v after ErrIneligible, want closed", remote.breaker.state)
	}
	if !u.queued {
		t.Error("unit not requeued for the remaining candidate")
	}

	// A transport failure on the same shape: tried consumed, breaker
	// fed, crash counted.
	d, remote, u = newDispatcher()
	d.retry(remote, u, errors.New("connection refused"), false)
	if !u.tried[remote.id] {
		t.Error("transport failure did not consume the tried budget")
	}
	if u.ineligible[remote.id] {
		t.Error("transport failure recorded as ineligibility")
	}
	if u.crashes != 1 {
		t.Errorf("u.crashes = %d after transport failure, want 1", u.crashes)
	}
	if remote.breaker.state != breakerOpen {
		t.Errorf("breaker state = %v after transport failure, want open", remote.breaker.state)
	}
}

// TestAdaptiveHedgeThreshold pins the HedgeAdaptive cutoff: undefined
// below the sample floor, then 3× the p95 latency with a 250ms floor.
func TestAdaptiveHedgeThreshold(t *testing.T) {
	var lat []time.Duration
	for i := 0; i < 7; i++ {
		lat = append(lat, 10*time.Millisecond)
	}
	if _, ok := adaptiveHedgeThreshold(lat); ok {
		t.Error("threshold defined with fewer than 8 samples")
	}

	lat = append(lat, 10*time.Millisecond)
	thr, ok := adaptiveHedgeThreshold(lat)
	if !ok || thr != 250*time.Millisecond {
		t.Errorf("uniform fast latencies: threshold = %v/%v, want 250ms floor", thr, ok)
	}

	lat[len(lat)-1] = 200 * time.Millisecond // p95 of 8 samples = max
	thr, ok = adaptiveHedgeThreshold(lat)
	if !ok || thr != 600*time.Millisecond {
		t.Errorf("threshold = %v/%v, want 3×p95 = 600ms", thr, ok)
	}
}
