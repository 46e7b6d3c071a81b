// Fault-injection harness for the multi-tenant gateway: a 3-tenant
// campaign over a 3-daemon fleet with a peer killed mid-flight, a
// rate-limited tenant, a stalled SSE consumer, wire-level chaos
// (dropped / stalled / half-written responses, 401/403/429 storms) and
// journal corruption — asserting byte-identical results, exactly-once
// simulation, and quota invariants throughout.
//
// External test package: it drives the daemon through internal/client
// (which imports internal/server), exactly like production traffic.
package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/client"
	"repro/internal/client/clienttest"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// fiTiny is a ~2ms simulation differentiated by seed.
func fiTiny(seed uint64) sim.Config {
	cfg := sim.DefaultConfig("lbm")
	cfg.WarmupInstructions = 10_000
	cfg.RunInstructions = 20_000
	cfg.Seed = seed
	return cfg
}

// fiMedium is a ~100ms simulation: long enough that a peer killed a few
// hundred ms into the campaign is overwhelmingly likely to be holding a
// flight, short enough to keep the campaign seconds-scale.
func fiMedium(seed uint64) sim.Config {
	cfg := fiTiny(seed)
	cfg.RunInstructions = 2_000_000
	return cfg
}

// fiAnalysis enables the per-epoch analysis stream on a tiny config.
func fiAnalysis(seed uint64) sim.Config {
	cfg := fiTiny(seed)
	cfg.Analysis = &analysis.Config{Enabled: true, EpochCycles: 10_000, MaxEpochs: 1024}
	return cfg
}

// fiDaemon is one daemon of the fleet under test.
type fiDaemon struct {
	ts *httptest.Server
	m  *server.Manager
}

func startFleetDaemon(t *testing.T, cfg server.ManagerConfig) *fiDaemon {
	t.Helper()
	m := server.NewManager(cfg)
	d := &fiDaemon{ts: httptest.NewServer(server.New(m)), m: m}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = d.m.Drain(ctx)
		d.ts.Close()
	})
	return d
}

// fiClient returns an authenticated client for d whose retry backoff
// starts at 5 ms, so the 429 storms below retry quickly.
func fiClient(d *fiDaemon, token string) *client.Client {
	c := client.New(d.ts.URL)
	c.Token = token
	c.PollInterval = 5 * time.Millisecond
	return c
}

// fiBaseline computes the local sweep.Run reference result the fleet
// must reproduce byte-identically.
func fiBaseline(t *testing.T, cfg sim.Config) sim.Result {
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

// dumpFaultArtifacts writes the daemon's job journal and a metrics
// snapshot under $CCSIMD_FAULT_ARTIFACTS when the test failed, so CI
// can upload the forensics from a red gateway-e2e run.
func dumpFaultArtifacts(t *testing.T, d *fiDaemon, journalPath string) {
	t.Helper()
	t.Cleanup(func() {
		dir := os.Getenv("CCSIMD_FAULT_ARTIFACTS")
		if !t.Failed() || dir == "" {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifacts: %v", err)
			return
		}
		name := strings.ReplaceAll(t.Name(), "/", "_")
		blob, err := json.MarshalIndent(d.m.Metrics(), "", "  ")
		if err == nil {
			_ = os.WriteFile(filepath.Join(dir, name+"-metrics.json"), blob, 0o644)
		}
		if journalPath != "" {
			if jb, err := os.ReadFile(journalPath); err == nil {
				_ = os.WriteFile(filepath.Join(dir, name+"-journal.json"), jb, 0o644)
			}
		}
		t.Logf("fault artifacts written to %s", dir)
	})
}

// TestFleetFaultCampaign is the flagship end-to-end: three tenants
// (alice: weight 2; bob: rate-limited at 0.5 submissions/s; carol:
// max 2 queued jobs, priority 1) run overlapping campaigns against a
// front daemon fronting two peers — one peer requiring gateway auth,
// the other killed mid-flight — while one SSE consumer sits on a job's
// event stream without ever reading it. Every result must match a
// local sweep.Run byte-for-byte, every distinct config must simulate
// exactly once fleet-wide (as accounted by the front), and per-tenant
// quota invariants must hold at every metrics observation.
func TestFleetFaultCampaign(t *testing.T) {
	// Two peers: peer1 behind a gateway-tenant registry (the front must
	// authenticate and forward the original caller's tenant), peer2 in
	// open mode, doomed to die mid-campaign.
	peer1Reg, err := server.NewRegistry([]server.Tenant{
		{Name: "fleet", Token: "tok-fleet", Gateway: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	peer1 := startFleetDaemon(t, server.ManagerConfig{Workers: 1, QueueDepth: 16, Tenants: peer1Reg})
	peer2 := startFleetDaemon(t, server.ManagerConfig{Workers: 1, QueueDepth: 16})

	pr1 := client.NewPeer(peer1.ts.URL, 1)
	pr1.Token = "tok-fleet"
	pr2 := client.NewPeer(peer2.ts.URL, 1)

	frontReg, err := server.NewRegistry([]server.Tenant{
		{Name: "alice", Token: "tok-alice", Weight: 2},
		{Name: "bob", Token: "tok-bob", RatePerSec: 0.5, Burst: 1},
		{Name: "carol", Token: "tok-carol", MaxQueued: 2, Priority: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cachePath := filepath.Join(t.TempDir(), "results.json")
	cache, err := sweep.OpenCache(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	front := startFleetDaemon(t, server.ManagerConfig{
		Workers:    1,
		QueueDepth: 32,
		Cache:      cache,
		Tenants:    frontReg,
		HotResults: 4, // force hot-tier evictions during the campaign
		Remotes:    []server.Remote{pr1, pr2},
	})
	dumpFaultArtifacts(t, front, cachePath+".jobs")

	// Overlapping seed sets: alice 1-8, carol 5-10, bob 2-3. Ten
	// distinct configs fleet-wide; the overlaps exercise cross-tenant
	// dedup and cache hits.
	aliceSeeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	carolSeeds := []uint64{5, 6, 7, 8, 9, 10}
	bobSeeds := []uint64{2, 3}
	baseline := map[uint64]sim.Result{}
	for s := uint64(1); s <= 10; s++ {
		baseline[s] = fiBaseline(t, fiMedium(s))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	alice := fiClient(front, "tok-alice")
	bob := fiClient(front, "tok-bob")
	carol := fiClient(front, "tok-carol")

	// Stalled SSE consumer: carol pre-submits her first job and parks a
	// never-read connection on its event stream for the whole campaign.
	// The daemon must not let one dead-slow subscriber block anything.
	pre, err := carol.Submit(ctx, []server.JobSpec{{Label: "stalled-sub", Config: fiMedium(carolSeeds[0])}})
	if err != nil {
		t.Fatal(err)
	}
	sseReq, err := http.NewRequestWithContext(ctx, http.MethodGet, front.ts.URL+"/v1/jobs/"+pre[0].ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	sseReq.Header.Set("Authorization", "Bearer tok-carol")
	sseResp, err := (&http.Client{}).Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if sseResp.StatusCode != http.StatusOK {
		t.Fatalf("SSE subscribe: HTTP %d", sseResp.StatusCode)
	}

	// Quota watchdog: every observation of /metrics must satisfy the
	// tenant invariants — carol never has more than MaxQueued flights
	// waiting, no token bucket goes negative, counters are monotonic.
	watchStop := make(chan struct{})
	var watchWG sync.WaitGroup
	var violations []string
	var vmu sync.Mutex
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		prev := map[string]server.TenantMetrics{}
		for {
			select {
			case <-watchStop:
				return
			default:
			}
			met := front.m.Metrics()
			vmu.Lock()
			for _, tm := range met.Tenants {
				if tm.Name == "carol" && tm.Queued > 2 {
					violations = append(violations, fmt.Sprintf("carol queued %d > max 2", tm.Queued))
				}
				if tm.RateTokens != nil && *tm.RateTokens < 0 {
					violations = append(violations, fmt.Sprintf("%s rate tokens %v < 0", tm.Name, *tm.RateTokens))
				}
				if p, ok := prev[tm.Name]; ok && (tm.Submitted < p.Submitted || tm.Completed < p.Completed) {
					violations = append(violations, fmt.Sprintf("%s counters regressed", tm.Name))
				}
				prev[tm.Name] = tm
			}
			vmu.Unlock()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Kill peer2 mid-campaign: sever its live connections, then close
	// the listener. In-flight work hands back to the front's queue.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(250 * time.Millisecond)
		peer2.ts.CloseClientConnections()
		peer2.ts.Close()
	}()

	var wg sync.WaitGroup
	var aliceRes, carolRes []sim.Result
	var aliceErr, carolErr, bobErr error
	var bobRes []server.JobStatus
	wg.Add(3)
	go func() {
		defer wg.Done()
		jobs := make([]sweep.Job, len(aliceSeeds))
		for i, s := range aliceSeeds {
			jobs[i] = sweep.Job{Label: fmt.Sprintf("alice-%d", s), Config: fiMedium(s)}
		}
		aliceRes, aliceErr = alice.RunSweep(ctx, jobs, nil)
	}()
	go func() {
		defer wg.Done()
		jobs := make([]sweep.Job, len(carolSeeds))
		for i, s := range carolSeeds {
			jobs[i] = sweep.Job{Label: fmt.Sprintf("carol-%d", s), Config: fiMedium(s)}
		}
		carolRes, carolErr = carol.RunSweep(ctx, jobs, nil)
	}()
	go func() {
		defer wg.Done()
		// Two back-to-back submissions through a 1-token bucket at 0.5/s:
		// the second MUST bounce with 429 + Retry-After before RunJob
		// pushes both through by honoring the hint.
		if _, err := bob.Submit(ctx, []server.JobSpec{{Label: "bob-first", Config: fiMedium(bobSeeds[0])}}); err != nil {
			bobErr = fmt.Errorf("bob first submit: %w", err)
			return
		}
		_, err := bob.Submit(ctx, []server.JobSpec{{Label: "bob-burst", Config: fiMedium(bobSeeds[1])}})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
			bobErr = fmt.Errorf("bob burst submit = %v, want HTTP 429", err)
			return
		}
		if apiErr.RetryAfter <= 0 {
			bobErr = fmt.Errorf("429 without a Retry-After hint: %v", apiErr)
			return
		}
		for _, s := range bobSeeds {
			st, err := bob.RunJob(ctx, server.JobSpec{Label: fmt.Sprintf("bob-%d", s), Config: fiMedium(s)})
			if err != nil {
				bobErr = fmt.Errorf("bob seed %d: %w", s, err)
				return
			}
			bobRes = append(bobRes, st)
		}
	}()
	wg.Wait()
	<-killed
	close(watchStop)
	watchWG.Wait()

	for name, err := range map[string]error{"alice": aliceErr, "carol": carolErr, "bob": bobErr} {
		if err != nil {
			t.Fatalf("%s campaign: %v", name, err)
		}
	}

	// Byte-identical results for every tenant, against local sweep.Run.
	for i, s := range aliceSeeds {
		if !reflect.DeepEqual(aliceRes[i], baseline[s]) {
			t.Errorf("alice seed %d: fleet result differs from local run", s)
		}
	}
	for i, s := range carolSeeds {
		if !reflect.DeepEqual(carolRes[i], baseline[s]) {
			t.Errorf("carol seed %d: fleet result differs from local run", s)
		}
	}
	for i, s := range bobSeeds {
		if bobRes[i].Result == nil || !reflect.DeepEqual(*bobRes[i].Result, baseline[s]) {
			t.Errorf("bob seed %d: fleet result differs from local run", s)
		}
	}
	// The stalled consumer's job finished too, unbothered.
	if st, err := carol.Job(ctx, pre[0].ID); err != nil || st.State != server.StateDone {
		t.Errorf("stalled-subscriber job: state %v, err %v", st.State, err)
	}

	vmu.Lock()
	for _, v := range violations {
		t.Errorf("quota invariant violated: %s", v)
	}
	vmu.Unlock()

	met := front.m.Metrics()
	// Exactly-once: ten distinct configs, ten simulations fleet-wide as
	// accounted by the front (local + remote), regardless of dedup,
	// cache hits, rate-limit retries, or the killed peer's handbacks.
	if got := met.SimulationsRun + met.RemoteSimulations; got != 10 {
		t.Errorf("fleet simulations = %d (local %d + remote %d), want exactly 10",
			got, met.SimulationsRun, met.RemoteSimulations)
	}
	byName := map[string]server.TenantMetrics{}
	for _, tm := range met.Tenants {
		byName[tm.Name] = tm
	}
	if byName["bob"].RateLimited == 0 {
		t.Error("bob was never rate-limited")
	}
	if c := byName["alice"].Completed; c != 8 {
		t.Errorf("alice completed %d jobs, want 8", c)
	}
	if c := byName["bob"].Completed; c != 3 { // bob-first + the two RunJobs
		t.Errorf("bob completed %d jobs, want 3", c)
	}
	if c := byName["carol"].Completed; c != 7 { // 6 sweep + the pre-submitted job
		t.Errorf("carol completed %d jobs, want 7", c)
	}
	if met.ResultStore == nil || met.ResultStore.HotCapacity != 4 {
		t.Errorf("result store metrics missing or wrong capacity: %+v", met.ResultStore)
	} else if met.ResultStore.Evictions == 0 {
		t.Error("10 results through a 4-entry hot tier evicted nothing")
	}

	// Tenant isolation on the wire: alice's listing contains only her
	// jobs; carol cannot fetch an alice job even by ID.
	aliceJobs, err := alice.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(aliceJobs) == 0 {
		t.Error("alice sees no jobs")
	}
	var anAliceJob string
	for _, st := range aliceJobs {
		if st.Tenant != "alice" {
			t.Errorf("alice's listing leaked a %q job", st.Tenant)
		}
		anAliceJob = st.ID
	}
	_, err = carol.Job(ctx, anAliceJob)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("cross-tenant job fetch = %v, want HTTP 404", err)
	}

	// The gateway peer attributed forwarded jobs to the original
	// tenants, not to its "fleet" service account.
	for _, st := range peer1.m.Jobs() {
		if st.Tenant == "fleet" || st.Tenant == "" {
			t.Errorf("peer1 job %s attributed to %q, want a forwarded tenant", st.ID, st.Tenant)
		}
	}
}

// TestGatewayAuthStorm covers the HTTP auth matrix against a registry
// daemon: 401 with a WWW-Authenticate challenge for missing/bad
// tokens, 403 for disabled tenants, 404 (not 403 — no existence leak)
// for cross-tenant access, and unauthenticated health/metrics.
func TestGatewayAuthStorm(t *testing.T) {
	reg, err := server.NewRegistry([]server.Tenant{
		{Name: "alice", Token: "tok-alice"},
		{Name: "eve", Token: "tok-eve"},
		{Name: "mallory", Token: "tok-mallory", Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := startFleetDaemon(t, server.ManagerConfig{Workers: 1, QueueDepth: 8, Tenants: reg})

	get := func(path, token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, d.ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// A storm of bad credentials, all rejected without touching jobs.
	for i := 0; i < 20; i++ {
		if resp := get("/v1/jobs", ""); resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("tokenless: HTTP %d, want 401", resp.StatusCode)
		} else if resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatal("401 without a WWW-Authenticate challenge")
		}
		if resp := get("/v1/jobs", fmt.Sprintf("guess-%d", i)); resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("bad token: HTTP %d, want 401", resp.StatusCode)
		}
		if resp := get("/v1/jobs", "tok-mallory"); resp.StatusCode != http.StatusForbidden {
			t.Fatalf("disabled tenant: HTTP %d, want 403", resp.StatusCode)
		}
	}
	// Health and metrics stay open: probes and scrapers carry no tokens.
	if resp := get("/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: HTTP %d, want 200", resp.StatusCode)
	}
	if resp := get("/metrics", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics: HTTP %d, want 200", resp.StatusCode)
	}

	// Alice's job is invisible to eve at every endpoint — always a 404,
	// never a 403 that would confirm the ID exists.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	alice := fiClient(d, "tok-alice")
	st, err := alice.RunJob(ctx, server.JobSpec{Label: "private", Config: fiTiny(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/v1/jobs/" + st.ID,
		"/v1/jobs/" + st.ID + "/events",
		"/v1/analysis/" + st.ID,
		"/v1/analysis/" + st.ID + "/stream",
	} {
		if resp := get(path, "tok-eve"); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s as eve: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, d.ts.URL+"/v1/jobs/"+st.ID, nil)
	req.Header.Set("Authorization", "Bearer tok-eve")
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("DELETE as eve: HTTP %d, want 404", resp.StatusCode)
		}
	}
}

// TestChaosClientStorms drives the client through wire-level faults
// against a healthy open-mode daemon: transient 429 storms are
// retried, Retry-After hints are decoded and honored, auth failures
// fail fast, stalls are absorbed, and dropped connections surface as
// errors instead of hangs or corrupted results.
func TestChaosClientStorms(t *testing.T) {
	d := startFleetDaemon(t, server.ManagerConfig{Workers: 1, QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	t.Run("429 storm retried", func(t *testing.T) {
		chaos := clienttest.NewChaosTransport(nil).Add(clienttest.Rule{
			Name:   "submit-429",
			Match:  func(r *http.Request) bool { return r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/jobs") },
			Times:  3,
			Status: http.StatusTooManyRequests,
			Body:   `{"error":"synthetic storm"}`,
		}).Add(clienttest.Rule{
			Name:  "poll-stall",
			Match: func(r *http.Request) bool { return r.Method == http.MethodGet },
			Times: 2,
			Stall: 100 * time.Millisecond,
		})
		c := fiClient(d, "")
		c.SetTransport(chaos)
		st, err := c.RunJob(ctx, server.JobSpec{Label: "stormy", Config: fiTiny(11)})
		if err != nil {
			t.Fatalf("RunJob through 429 storm: %v", err)
		}
		if st.Result == nil || !reflect.DeepEqual(*st.Result, fiBaseline(t, fiTiny(11))) {
			t.Error("result corrupted by the storm")
		}
		inj := chaos.Injected()
		if inj["submit-429"] != 3 || inj["poll-stall"] == 0 {
			t.Errorf("injections = %v, want submit-429:3 and at least one poll-stall", inj)
		}
	})

	t.Run("retry-after decoded", func(t *testing.T) {
		chaos := clienttest.NewChaosTransport(nil).Add(clienttest.Rule{
			Name:   "hinted-429",
			Times:  1,
			Status: http.StatusTooManyRequests,
			Header: http.Header{"Retry-After": []string{"7"}},
			Body:   `{"error":"cool down"}`,
		})
		c := fiClient(d, "")
		c.SetTransport(chaos)
		_, err := c.Submit(ctx, []server.JobSpec{{Config: fiTiny(12)}})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
			t.Fatalf("submit = %v, want APIError 429", err)
		}
		if apiErr.RetryAfter != 7*time.Second {
			t.Errorf("RetryAfter = %v, want 7s", apiErr.RetryAfter)
		}
	})

	t.Run("401 fails fast", func(t *testing.T) {
		chaos := clienttest.NewChaosTransport(nil).Add(clienttest.Rule{
			Name:   "deny",
			Status: http.StatusUnauthorized,
			Body:   `{"error":"who are you"}`,
		})
		c := fiClient(d, "")
		c.SetTransport(chaos)
		_, err := c.RunJob(ctx, server.JobSpec{Config: fiTiny(13)})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
			t.Fatalf("RunJob = %v, want fail-fast APIError 401", err)
		}
		if n := chaos.Injected()["deny"]; n != 1 {
			t.Errorf("client retried a 401 (%d attempts); auth failures are not transient", n)
		}
	})

	t.Run("dropped connection surfaces", func(t *testing.T) {
		chaos := clienttest.NewChaosTransport(nil).Add(clienttest.Rule{
			Name: "drop",
			Drop: true,
		})
		c := fiClient(d, "")
		c.SetTransport(chaos)
		_, err := c.RunJob(ctx, server.JobSpec{Config: fiTiny(14)})
		if err == nil || !strings.Contains(err.Error(), "connection dropped") {
			t.Fatalf("RunJob over dead wire = %v, want transport error", err)
		}
	})
}

// TestSSETruncationHeals half-writes the analysis SSE stream — the
// connection dies mid-body, twice — and asserts the client's
// Last-Event-ID resume rebuilds the final report byte-identically to
// the daemon's canonical /v1/analysis/{id} document.
func TestSSETruncationHeals(t *testing.T) {
	d := startFleetDaemon(t, server.ManagerConfig{Workers: 1, QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	c := fiClient(d, "")
	st, err := c.RunJob(ctx, server.JobSpec{Label: "truncated", Config: fiAnalysis(21)})
	if err != nil {
		t.Fatal(err)
	}

	chaos := clienttest.NewChaosTransport(nil).
		Add(clienttest.Rule{
			Name:  "drop-stream",
			Match: func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/stream") },
			Times: 1,
			Drop:  true,
		}).
		Add(clienttest.Rule{
			Name:         "truncate-stream",
			Match:        func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/stream") },
			Times:        2,
			TruncateBody: 2048,
		})
	c.SetTransport(chaos)

	acc := analysis.NewStreamAccumulator()
	var attempts int
	for {
		err := c.StreamAnalysis(ctx, st.ID, acc.Seq(), func(b analysis.StreamBatch) { acc.Apply(b) })
		if err == nil {
			break
		}
		if attempts++; attempts > 6 {
			t.Fatalf("stream never healed after %d attempts: %v", attempts, err)
		}
	}
	inj := chaos.Injected()
	if inj["drop-stream"] != 1 || inj["truncate-stream"] == 0 {
		t.Fatalf("faults not exercised: %v", inj)
	}

	rep, err := acc.Report()
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Analysis(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := json.Marshal(final)
	if err != nil {
		t.Fatal(err)
	}
	if string(streamed) != string(canonical) {
		t.Errorf("report rebuilt over a half-written stream differs from canonical:\nstream: %s\nfinal:  %s", streamed, canonical)
	}
}

// TestJournalCorruptionRecovery corrupts the on-disk job journal
// between daemon generations: the restarted daemon must quarantine the
// bytes to .corrupt, keep serving (including cache hits for results
// the journal no longer remembers), and journal new completions.
func TestJournalCorruptionRecovery(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	dir := t.TempDir()
	cachePath := filepath.Join(dir, "results.json")
	journalPath := cachePath + ".jobs"

	cache, err := sweep.OpenCache(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	m1 := server.NewManager(server.ManagerConfig{Workers: 1, QueueDepth: 8, Cache: cache})
	ts1 := httptest.NewServer(server.New(m1))
	c1 := client.New(ts1.URL)
	st, err := c1.RunJob(ctx, server.JobSpec{Label: "gen1", Config: fiTiny(31)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if _, err := os.Stat(journalPath); err != nil {
		t.Fatalf("no journal after a completed job: %v", err)
	}

	// Scribble over the journal; the next daemon must quarantine it.
	if err := os.WriteFile(journalPath, []byte(`{"version":1,"jobs":[{"id":"job-`), 0o644); err != nil {
		t.Fatal(err)
	}
	cache2, err := sweep.OpenCache(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	d2 := startFleetDaemon(t, server.ManagerConfig{Workers: 1, QueueDepth: 8, Cache: cache2})
	if _, err := os.Stat(journalPath + ".corrupt"); err != nil {
		t.Fatalf("corrupted journal not quarantined: %v", err)
	}

	c2 := fiClient(d2, "")
	// The old job ID is gone with the journal: a clean 404, not a crash.
	_, err = c2.Job(ctx, st.ID)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("pre-corruption job lookup = %v, want 404", err)
	}
	// Its result survived in the content-addressed cache.
	res, err := c2.Result(ctx, st.Key)
	if err != nil {
		t.Fatalf("cached result lost to journal corruption: %v", err)
	}
	if !reflect.DeepEqual(res, *st.Result) {
		t.Error("cached result differs across the corruption")
	}
	// Resubmitting the same config is a cache hit, and the daemon
	// journals fresh completions again.
	st2, err := c2.RunJob(ctx, server.JobSpec{Label: "gen2", Config: fiTiny(31)})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Error("identical config resimulated after journal corruption")
	}
	if _, err := os.Stat(journalPath); err != nil {
		t.Errorf("no fresh journal after recovery: %v", err)
	}
}
