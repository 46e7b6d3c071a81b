// Package dispatch shards a sweep campaign across a fleet of ccsimd
// daemons plus an optional local worker pool, turning the single-node
// campaign engine (internal/sweep) into a horizontally scalable one
// while preserving sweep.Run's contract exactly:
//
//   - results come back in input order, bit-identical to a local run
//     (every worker executes the same deterministic simulator),
//   - the first failing simulation stops dispatch and is returned as a
//     *sweep.JobError carrying the lowest failed input index,
//   - cancelling ctx stops dispatch, cancels outstanding remote jobs
//     best-effort, and returns ctx.Err(),
//   - a local sweep.Cache is consulted before any dispatch and every
//     completed result is written back to it, so an interrupted
//     distributed campaign resumes locally (or on a different fleet).
//
// The dispatcher handles real fleet behaviour: endpoints are health
// probed up front and weighted by their advertised worker capacity
// (each endpoint holds at most that many jobs in flight), identical
// configs are singleflighted on sweep.Key so each distinct config
// simulates exactly once per campaign, and a job whose worker dies or
// times out is retried transparently on another endpoint.
//
// The fleet self-heals. Each endpoint runs behind a circuit breaker
// (see breaker.go): transport failures open it, and on an interval the
// worker is re-probed with a real unit — a daemon that crashed and
// restarted mid-campaign rejoins and receives new units. Straggling
// units can be hedged: once an attempt outlives the straggler
// threshold, a second attempt launches on another eligible worker and
// the first result wins, without double-counting simulations. A unit
// whose attempts keep killing workers is quarantined after
// PoisonThreshold crashes instead of cascading through the fleet. Only
// a unit with no live or recoverable worker left fails the campaign.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Options configures a distributed campaign.
type Options struct {
	// Endpoints are ccsimd base URLs. Each live endpoint contributes
	// in-flight capacity equal to its advertised worker count.
	Endpoints []string

	// LocalWorkers adds that many in-process simulation slots to the
	// fleet (0 = none). Local slots can always run trace-file configs.
	LocalWorkers int

	// Cache, when non-nil, is consulted before dispatch and receives
	// every completed result, so interrupted campaigns resume locally.
	Cache *sweep.Cache

	// Progress, when non-nil, observes one event per input job, with
	// monotonically increasing Done (see sweep.Options.Progress).
	Progress func(sweep.Event)

	// ProbeTimeout bounds the initial health probe per endpoint
	// (default 5s). Endpoints failing the probe are dropped for the
	// whole campaign.
	ProbeTimeout time.Duration

	// JobTimeout bounds one remote execution attempt (0 = none). An
	// attempt hitting it is retried on another worker, covering
	// workers that hang without closing connections.
	JobTimeout time.Duration

	// MaxPerEndpoint clamps the probed per-endpoint capacity (0 = no
	// clamp), for sharing a fleet politely.
	MaxPerEndpoint int

	// Token is the bearer credential sent to every endpoint — required
	// against daemons with a tenant registry (ccsimd -tenants).
	Token string

	// ReprobeInterval is how long an open circuit breaker waits before
	// re-probing its endpoint with a real unit (default 3s). Crashed
	// daemons that restart within the campaign rejoin on this cadence.
	ReprobeInterval time.Duration

	// BreakerThreshold is the consecutive transport failures that open
	// an endpoint's breaker (default 1 — one connection loss pulls the
	// endpoint out of rotation until a probe succeeds).
	BreakerThreshold int

	// BreakerProbeLimit retires an endpoint permanently after that many
	// consecutive failed re-probes (default 4; negative = keep probing
	// for the whole campaign).
	BreakerProbeLimit int

	// HedgeAfter enables straggler hedging: an in-flight unit older
	// than this is attempted a second time on another eligible worker,
	// first result wins. 0 disables fixed-threshold hedging (see
	// HedgeAdaptive).
	HedgeAfter time.Duration

	// HedgeAdaptive, when HedgeAfter is 0, derives the straggler
	// threshold from the campaign itself: 3× the p95 of fresh unit
	// latencies, once at least 8 units have completed.
	HedgeAdaptive bool

	// PoisonThreshold quarantines a unit after that many attempts that
	// each ended in a worker-killing transport failure (default 3;
	// negative = never quarantine).
	PoisonThreshold int

	// Stats, when non-nil, is filled with campaign totals before Run
	// returns.
	Stats *Stats
}

func (o Options) reprobeInterval() time.Duration {
	if o.ReprobeInterval > 0 {
		return o.ReprobeInterval
	}
	return 3 * time.Second
}

func (o Options) breakerThreshold() int {
	if o.BreakerThreshold > 0 {
		return o.BreakerThreshold
	}
	return 1
}

func (o Options) breakerProbeLimit() int {
	if o.BreakerProbeLimit != 0 {
		return o.BreakerProbeLimit
	}
	return 4
}

func (o Options) poisonThreshold() int {
	if o.PoisonThreshold != 0 {
		return o.PoisonThreshold
	}
	return 3
}

// Stats summarizes how a campaign used the fleet.
type Stats struct {
	Endpoints      int // endpoints that passed the probe and ended the campaign healthy
	DeadEndpoints  int // endpoints that failed the probe or ended with a non-closed breaker
	Slots          int // total in-flight capacity at start, local slots included
	Simulations    int // distinct configs freshly simulated fleet-wide
	CacheHits      int // jobs served from a cache (local or a daemon's)
	Deduped        int // jobs that shared another identical job's simulation
	Retries        int // assignments retried on another worker after a loss or timeout
	Rejoins        int // circuit-breaker re-probes that brought an endpoint back
	HedgesLaunched int // second attempts started for straggling units
	HedgesWon      int // hedged attempts that beat the original
	Quarantined    int // units failed for killing PoisonThreshold workers
}

// unit is one distinct simulation: all input jobs sharing a sweep.Key
// collapse onto it (singleflight). At most two attempts run at a time
// (the original and one hedge), and exactly one terminal outcome wins.
type unit struct {
	key     string // content address; "" for uncacheable configs
	job     sweep.Job
	indices []int // input positions served by this unit

	tried      map[int]bool // workers that lost/timed out on it; cleared when a worker rejoins
	ineligible map[int]bool // workers that rejected it as ineligible — permanent, unlike tried

	holders map[int]bool               // workers with an attempt in flight
	cancels map[int]context.CancelFunc // per-attempt cancels, for first-result-wins

	attempts    int       // attempts currently in flight
	crashes     int       // attempts that ended in a worker-killing transport failure
	hedged      bool      // a hedge attempt was launched (at most one per unit)
	hedgeWorker int       // worker that launched the hedge
	queued      bool      // sitting in dispatcher.pending
	lastClaim   time.Time // when the newest attempt was claimed

	err  error // terminal failure
	done bool
}

// hasTraces reports whether the unit's config replays trace files.
func (u *unit) hasTraces() bool {
	for _, p := range u.job.Config.TraceFiles {
		if p != "" {
			return true
		}
	}
	return false
}

// worker is one execution backend: a probed endpoint or the local
// pool. Its slot count many goroutines each hold at most one unit in
// flight, which both bounds per-worker load and realizes
// capacity-weighted assignment — a 16-worker daemon pulls units four
// times as fast as a 4-worker one.
type worker struct {
	id        int
	name      string
	cli       *client.Client // nil for the local pool
	traceRoot string
	slots     int
	breaker   breaker // guarded by dispatcher.mu
}

// Run executes jobs across the fleet described by opts and returns
// results in input order. See the package comment for the contract.
func Run(ctx context.Context, jobs []sweep.Job, opts Options) ([]sim.Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers, probeErrs := probe(ctx, opts)
	stats := Stats{DeadEndpoints: len(probeErrs)}
	for _, w := range workers {
		if w.cli != nil {
			stats.Endpoints++
		}
		stats.Slots += w.slots
	}
	defer func() {
		if opts.Stats != nil {
			*opts.Stats = stats
		}
	}()
	if len(workers) == 0 {
		return nil, fmt.Errorf("dispatch: no usable workers: every endpoint failed its health probe (%s) and no local workers are configured", errJoin(probeErrs))
	}

	d := &dispatcher{
		ctx:     ctx,
		jobs:    jobs,
		results: make([]sim.Result, len(jobs)),
		workers: workers,
		opts:    opts,
		stats:   &stats,
	}
	d.cond = sync.NewCond(&d.mu)

	units := d.buildUnits()
	if err := d.checkTraceEligibility(units); err != nil {
		return nil, err
	}
	d.units = units
	d.pending = append(d.pending, units...)
	for _, u := range units {
		u.queued = true
	}
	d.outstanding = len(units)

	// Wake blocked workers when the caller cancels.
	runDone := make(chan struct{})
	defer close(runDone)
	go func() {
		select {
		case <-ctx.Done():
		case <-runDone:
		}
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	}()

	var wg sync.WaitGroup
	for _, w := range d.workers {
		for s := 0; s < w.slots; s++ {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				d.serve(w)
			}(w)
		}
	}
	wg.Wait()

	// An endpoint that ends the campaign with a non-closed breaker died
	// mid-campaign (and never rejoined): report it dead.
	d.mu.Lock()
	for _, w := range d.workers {
		if w.cli != nil && w.breaker.state != breakerClosed {
			stats.Endpoints--
			stats.DeadEndpoints++
		}
	}
	d.mu.Unlock()

	// Mirror sweep.Run: the recorded failure with the lowest input
	// index wins; an external cancellation with no recorded failure
	// surfaces as ctx.Err().
	var firstErr *sweep.JobError
	for _, u := range units {
		if u.err == nil {
			continue
		}
		idx := u.indices[0]
		if firstErr == nil || idx < firstErr.Index {
			firstErr = &sweep.JobError{Index: idx, Label: jobs[idx].Label, Err: u.err}
		}
	}
	if firstErr != nil {
		return d.results, firstErr
	}
	if err := ctx.Err(); err != nil {
		return d.results, err
	}
	return d.results, nil
}

// dispatcher is the shared coordination state of one Run call.
type dispatcher struct {
	ctx     context.Context
	jobs    []sweep.Job
	results []sim.Result
	workers []*worker
	opts    Options
	stats   *Stats

	mu          sync.Mutex
	cond        *sync.Cond
	units       []*unit
	pending     []*unit
	outstanding int // units not yet terminal
	failed      bool
	latencies   []time.Duration // fresh unit latencies, for the adaptive hedge threshold

	progMu sync.Mutex
	done   int // finished input jobs; guarded by progMu
}

// probe health-checks every endpoint concurrently and returns the live
// workers (capacity-weighted) plus the local pool.
func probe(ctx context.Context, opts Options) ([]*worker, []error) {
	timeout := opts.ProbeTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	type outcome struct {
		w   *worker
		err error
	}
	outcomes := make([]outcome, len(opts.Endpoints))
	var wg sync.WaitGroup
	for i, ep := range opts.Endpoints {
		wg.Add(1)
		go func(i int, ep string) {
			defer wg.Done()
			cli := client.New(ep)
			cli.Token = opts.Token
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			h, err := cli.Health(pctx)
			if err != nil {
				outcomes[i] = outcome{err: fmt.Errorf("dispatch: endpoint %s: %w", ep, err)}
				return
			}
			slots := h.Workers
			if slots < 1 {
				slots = 1
			}
			if opts.MaxPerEndpoint > 0 && slots > opts.MaxPerEndpoint {
				slots = opts.MaxPerEndpoint
			}
			outcomes[i] = outcome{w: &worker{
				name:      cli.Base(),
				cli:       cli,
				traceRoot: h.TraceRoot,
				slots:     slots,
			}}
		}(i, ep)
	}
	wg.Wait()

	var workers []*worker
	var errs []error
	for _, o := range outcomes {
		switch {
		case o.w != nil:
			workers = append(workers, o.w)
		case o.err != nil:
			errs = append(errs, o.err)
		}
	}
	if opts.LocalWorkers > 0 {
		workers = append(workers, &worker{name: "local", slots: opts.LocalWorkers})
	}
	for i, w := range workers {
		w.id = i
		w.breaker = breaker{
			threshold:  opts.breakerThreshold(),
			reprobe:    opts.reprobeInterval(),
			probeLimit: opts.breakerProbeLimit(),
		}
	}
	return workers, errs
}

// buildUnits collapses the input jobs onto distinct units (singleflight
// on sweep.Key) and completes cache hits immediately. Uncacheable
// configs each get their own unit.
func (d *dispatcher) buildUnits() []*unit {
	var units []*unit
	byKey := map[string]*unit{}
	for i, job := range d.jobs {
		key, _ := sweep.Key(job.Config) // "" when uncacheable
		if key != "" {
			if u, ok := byKey[key]; ok {
				u.indices = append(u.indices, i)
				continue
			}
		}
		u := &unit{
			key:        key,
			job:        job,
			indices:    []int{i},
			tried:      map[int]bool{},
			ineligible: map[int]bool{},
			holders:    map[int]bool{},
			cancels:    map[int]context.CancelFunc{},
		}
		units = append(units, u)
		if key != "" {
			byKey[key] = u
		}
	}
	// Serve local cache hits before any dispatch, so resumed campaigns
	// touch the fleet only for missing configs.
	if d.opts.Cache == nil {
		return units
	}
	live := units[:0]
	for _, u := range units {
		if u.key == "" {
			live = append(live, u)
			continue
		}
		res, ok := d.opts.Cache.Lookup(u.key)
		if !ok {
			live = append(live, u)
			continue
		}
		u.done = true
		d.stats.CacheHits += len(u.indices)
		d.fill(u, res)
		d.report(u, res, true, true, 0, nil)
	}
	return live
}

// checkTraceEligibility rejects, up front and with a clear error, any
// trace-file config that no fleet worker can faithfully execute: remote
// daemons open trace paths on their own filesystem, so only endpoints
// advertising a shared trace root covering the paths (or local
// workers) qualify.
func (d *dispatcher) checkTraceEligibility(units []*unit) error {
	for _, u := range units {
		if !u.hasTraces() || u.done {
			continue
		}
		eligible := false
		var lastErr error
		for _, w := range d.workers {
			if err := eligibleErr(u, w); err == nil {
				eligible = true
				break
			} else {
				lastErr = err
			}
		}
		if !eligible {
			return fmt.Errorf("dispatch: job %q cannot run anywhere in the fleet: %w (add local workers, or endpoints started with -trace-root over a shared directory)", u.job.Label, lastErr)
		}
	}
	return nil
}

// eligibleErr reports whether w can faithfully execute u ("" error).
func eligibleErr(u *unit, w *worker) error {
	if w.cli == nil || !u.hasTraces() {
		return nil
	}
	return client.ValidateTraceFiles(u.job.Config, w.traceRoot)
}

// serve is one worker slot's loop: claim the next eligible unit,
// execute it, repeat until the campaign ends or the worker's breaker
// goes permanently dead.
func (d *dispatcher) serve(w *worker) {
	for {
		u, probe := d.next(w)
		if u == nil {
			return
		}
		if !d.execute(w, u, probe) {
			return
		}
	}
}

// next blocks until w may take work — a pending unit, or a straggling
// in-flight unit worth hedging — and claims it. probe marks the claim
// as the worker's half-open re-probe. Returns nil when the campaign is
// over for this worker.
func (d *dispatcher) next(w *worker) (u *unit, probe bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.ctx.Err() != nil || d.failed || d.outstanding == 0 || w.breaker.state == breakerDead {
			return nil, false
		}
		ok, probeAttempt := w.breaker.allow(time.Now())
		if ok {
			if probeAttempt {
				// The re-probe runs a real unit. Give this worker a
				// fresh slate: tried marks recorded against its dead
				// incarnation no longer apply.
				d.clearTriedLocked(w)
			}
			for i, p := range d.pending {
				if p.tried[w.id] || p.ineligible[w.id] || eligibleErr(p, w) != nil {
					continue
				}
				d.pending = append(d.pending[:i], d.pending[i+1:]...)
				p.queued = false
				d.claimLocked(w, p)
				return p, probeAttempt
			}
			if h := d.hedgeCandidateLocked(w); h != nil {
				d.stats.HedgesLaunched++
				h.hedged = true
				h.hedgeWorker = w.id
				d.claimLocked(w, h)
				return h, probeAttempt
			}
			if probeAttempt {
				// Nothing claimable: release the probe slot so a later
				// wake-up can retry it.
				w.breaker.probing = false
			}
		} else if w.breaker.state == breakerOpen {
			// Wake this slot when the re-probe window opens.
			d.scheduleWake(time.Until(w.breaker.openedAt.Add(w.breaker.reprobe)))
		}
		d.cond.Wait()
	}
}

// claimLocked books an attempt of u on w and, when hedging is on, arms
// a wake-up at the straggler threshold so idle slots re-evaluate.
func (d *dispatcher) claimLocked(w *worker, u *unit) {
	u.attempts++
	u.holders[w.id] = true
	u.lastClaim = time.Now()
	if thr, ok := d.hedgeThresholdLocked(); ok && !u.hedged {
		d.scheduleWake(thr + time.Millisecond)
	}
}

// scheduleWake broadcasts the dispatcher condition after delay, waking
// slots parked in next() for time-based transitions (breaker re-probe
// windows, hedge thresholds).
func (d *dispatcher) scheduleWake(delay time.Duration) {
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	time.AfterFunc(delay, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
}

// hedgeCandidateLocked picks the oldest straggling in-flight unit w
// could usefully run a second attempt of, or nil.
func (d *dispatcher) hedgeCandidateLocked(w *worker) *unit {
	thr, ok := d.hedgeThresholdLocked()
	if !ok {
		return nil
	}
	now := time.Now()
	var best *unit
	for _, u := range d.units {
		if u.done || u.queued || u.attempts != 1 || u.hedged {
			continue
		}
		if u.holders[w.id] || u.tried[w.id] || u.ineligible[w.id] || eligibleErr(u, w) != nil {
			continue
		}
		if now.Sub(u.lastClaim) < thr {
			continue
		}
		if best == nil || u.lastClaim.Before(best.lastClaim) {
			best = u
		}
	}
	return best
}

// hedgeThresholdLocked resolves the straggler threshold: the fixed
// HedgeAfter, or (HedgeAdaptive) 3× the p95 of fresh unit latencies
// once enough samples exist.
func (d *dispatcher) hedgeThresholdLocked() (time.Duration, bool) {
	if d.opts.HedgeAfter > 0 {
		return d.opts.HedgeAfter, true
	}
	if !d.opts.HedgeAdaptive {
		return 0, false
	}
	thr, ok := adaptiveHedgeThreshold(d.latencies)
	return thr, ok
}

// adaptiveHedgeThreshold derives a straggler cutoff from observed
// fresh-simulation latencies: 3× p95 with a 250ms floor, defined only
// once hedgeMinSamples latencies exist.
func adaptiveHedgeThreshold(latencies []time.Duration) (time.Duration, bool) {
	const hedgeMinSamples = 8
	if len(latencies) < hedgeMinSamples {
		return 0, false
	}
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p95 := sorted[(len(sorted)*95+99)/100-1]
	thr := 3 * p95
	if thr < 250*time.Millisecond {
		thr = 250 * time.Millisecond
	}
	return thr, true
}

// execute runs one claimed attempt of u on w. It returns false when the
// slot must retire (campaign cancelled or breaker permanently dead).
func (d *dispatcher) execute(w *worker, u *unit, probe bool) bool {
	actx, acancel := context.WithCancel(d.ctx)
	defer acancel()
	d.mu.Lock()
	if u.done {
		// The unit resolved between claim and start (hedge partner won).
		d.endAttemptLocked(w, u)
		d.mu.Unlock()
		return true
	}
	if w.cli != nil {
		u.cancels[w.id] = acancel
	}
	d.mu.Unlock()

	start := time.Now()
	var (
		res    sim.Result
		cached bool
		err    error
	)
	if w.cli == nil {
		sys, nerr := sim.New(u.job.Config)
		if nerr == nil {
			res, err = sys.Run()
		} else {
			err = nerr
		}
	} else {
		jctx, jcancel := actx, func() {}
		if d.opts.JobTimeout > 0 {
			jctx, jcancel = context.WithTimeout(actx, d.opts.JobTimeout)
		}
		var st server.JobStatus
		st, err = w.cli.RunJob(jctx, server.JobSpec{Label: u.job.Label, Config: u.job.Config})
		jcancel()
		if err == nil {
			if st.Result == nil {
				err = fmt.Errorf("dispatch: %s finished job without a result", w.name)
			} else {
				res, cached = *st.Result, st.Cached
			}
		}
	}
	elapsed := time.Since(start)

	// An attempt cancelled because its hedge partner already landed the
	// unit is not evidence about this worker: discard it quietly.
	if err != nil && d.ctx.Err() == nil {
		d.mu.Lock()
		lost := u.done
		if lost {
			d.endAttemptLocked(w, u)
		}
		d.mu.Unlock()
		if lost {
			return w.cli == nil || !d.breakerDead(w)
		}
	}

	switch {
	case err == nil:
		d.breakerOK(w)
		d.complete(w, u, res, cached, elapsed)
		return true
	case isPermanent(w, err) && !isDeadlineFailure(err):
		d.breakerOK(w)
		d.fail(w, u, err, elapsed)
		return true
	case d.ctx.Err() != nil:
		d.abandon(w, u)
		return false
	default:
		// The worker died, the attempt timed out, or the daemon shed the
		// job for an unmeetable deadline: retry the unit on another
		// worker. Timeouts and deadline sheds keep the breaker closed —
		// one slow or over-committed daemon is not evidence it is gone.
		return d.retry(w, u, err, probe)
	}
}

// breakerDead reports (under the lock) whether w is permanently gone.
func (d *dispatcher) breakerDead(w *worker) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return w.breaker.state == breakerDead
}

// breakerOK records a transport-healthy attempt outcome. When it closes
// a previously open breaker, the worker has rejoined: its stale tried
// marks are already cleared (the probe grant did it) and every parked
// slot re-evaluates.
func (d *dispatcher) breakerOK(w *worker) {
	d.mu.Lock()
	if w.breaker.success() {
		d.stats.Rejoins++
		d.clearTriedLocked(w)
		d.cond.Broadcast()
	}
	d.mu.Unlock()
}

// clearTriedLocked forgets every tried mark recorded against w — used
// when w rejoins, since the marks indict a previous incarnation of the
// daemon. Ineligibility marks persist: trace roots don't resurrect.
func (d *dispatcher) clearTriedLocked(w *worker) {
	for _, u := range d.units {
		delete(u.tried, w.id)
	}
}

// isPermanent classifies failures that would recur identically on any
// worker: the simulation itself failed (locally, or remotely reported
// via *server.RemoteJobError), or the daemon rejected the config as
// invalid (HTTP 400).
func isPermanent(w *worker, err error) bool {
	if w.cli == nil {
		return true // local simulation errors are deterministic
	}
	var remoteErr *server.RemoteJobError
	if errors.As(err, &remoteErr) {
		return true
	}
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status == 400
}

// isDeadlineFailure classifies outcomes caused by deadline enforcement
// somewhere downstream — the daemon failed the job queue-side (reason
// "deadline") or shed it at admission. They are retryable on a less
// loaded worker and say nothing about transport health.
func isDeadlineFailure(err error) bool {
	var remoteErr *server.RemoteJobError
	if errors.As(err, &remoteErr) && remoteErr.Reason == server.ReasonDeadline {
		return true
	}
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Code == server.ErrCodeDeadlineUnmeetable
}

// endAttemptLocked books the end of w's attempt on u.
func (d *dispatcher) endAttemptLocked(w *worker, u *unit) {
	if u.holders[w.id] {
		u.attempts--
	}
	delete(u.holders, w.id)
	delete(u.cancels, w.id)
}

// complete lands one attempt's result. The first terminal attempt wins:
// it writes the cache, fills results, and counts stats exactly once; a
// hedge partner finishing later is discarded.
func (d *dispatcher) complete(w *worker, u *unit, res sim.Result, cached bool, elapsed time.Duration) {
	d.mu.Lock()
	if u.done {
		d.endAttemptLocked(w, u)
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	if d.opts.Cache != nil && u.key != "" {
		if err := d.opts.Cache.PutKeyed(u.key, res); err != nil {
			d.fail(w, u, err, elapsed)
			return
		}
	}
	d.mu.Lock()
	d.endAttemptLocked(w, u)
	if u.done {
		d.mu.Unlock()
		return
	}
	u.done = true
	if u.hedged && u.hedgeWorker == w.id {
		d.stats.HedgesWon++
	}
	for _, cancel := range u.cancels {
		cancel()
	}
	d.fill(u, res)
	d.outstanding--
	if cached {
		d.stats.CacheHits++
	} else {
		d.stats.Simulations++
		d.latencies = append(d.latencies, elapsed)
	}
	d.stats.Deduped += len(u.indices) - 1
	d.cond.Broadcast()
	d.mu.Unlock()
	d.report(u, res, cached, false, elapsed, nil)
}

// fail records a terminal unit failure and stops further dispatch
// (first-error cancellation; in-flight units still finish and record
// their results, exactly like sweep.Run).
func (d *dispatcher) fail(w *worker, u *unit, err error, elapsed time.Duration) {
	d.mu.Lock()
	d.endAttemptLocked(w, u)
	if u.done {
		d.mu.Unlock()
		return
	}
	u.err = err
	u.done = true
	for _, cancel := range u.cancels {
		cancel()
	}
	d.outstanding--
	d.failed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.report(u, sim.Result{}, false, false, elapsed, err)
}

// abandon drops an attempt that died with the campaign context: nobody
// will retry it, and Run reports ctx.Err().
func (d *dispatcher) abandon(w *worker, u *unit) {
	d.mu.Lock()
	d.endAttemptLocked(w, u)
	if !u.done {
		u.done = true
		d.outstanding--
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}

// retry hands a unit back after w lost it. Transport failures feed the
// worker's circuit breaker (and the unit's crash count, for poison
// quarantine); eligibility rejections are recorded separately and do
// not consume the unit's per-worker tried budget. The unit either
// requeues for the remaining candidates, stays with a live hedge
// partner, or — when no live or recoverable worker is left — fails the
// campaign. Returns whether this slot may keep serving.
func (d *dispatcher) retry(w *worker, u *unit, err error, probe bool) bool {
	ineligible := errors.Is(err, server.ErrIneligible)
	timeoutish := errors.Is(err, context.DeadlineExceeded) || isDeadlineFailure(err)
	transport := !ineligible && !timeoutish

	d.mu.Lock()
	d.endAttemptLocked(w, u)
	d.stats.Retries++
	if ineligible {
		u.ineligible[w.id] = true
	} else {
		u.tried[w.id] = true
	}
	if transport {
		u.crashes++
		w.breaker.failure(time.Now())
	} else if probe && w.cli != nil {
		// A re-probe that timed out or was shed did not prove the
		// worker healthy; send the breaker back to open rather than
		// wedging half-open forever.
		w.breaker.failure(time.Now())
	}
	if w.breaker.state == breakerOpen {
		d.scheduleWake(w.breaker.reprobe + time.Millisecond)
	}

	var failedUnits []*unit
	quarantine := d.opts.poisonThreshold()
	if !u.done && quarantine > 0 && u.crashes >= quarantine {
		d.stats.Quarantined++
		u.err = fmt.Errorf("dispatch: job %q quarantined: %d consecutive attempts each killed their worker (last: %v)", u.job.Label, u.crashes, err)
		d.terminateLocked(u)
		failedUnits = append(failedUnits, u)
	}

	// Fail every unit — this one and pending ones — that no live or
	// recoverable worker can take anymore, so campaigns never hang on a
	// shrinking fleet.
	requeue := d.pending[:0]
	for _, p := range d.pending {
		if d.hasCandidateLocked(p) {
			requeue = append(requeue, p)
			continue
		}
		p.queued = false
		p.err = fmt.Errorf("dispatch: no live worker left for %q (last endpoint lost: %v)", p.job.Label, err)
		d.terminateLocked(p)
	}
	d.pending = requeue
	if !u.done {
		switch {
		case u.attempts > 0:
			// A hedge partner still runs this unit; its outcome decides.
		case d.hasCandidateLocked(u):
			if !u.queued {
				u.queued = true
				d.pending = append(d.pending, u)
			}
		default:
			u.err = fmt.Errorf("dispatch: job %q failed on every live worker: %w", u.job.Label, err)
			d.terminateLocked(u)
			failedUnits = append(failedUnits, u)
		}
	}
	alive := w.breaker.state != breakerDead
	d.cond.Broadcast()
	d.mu.Unlock()
	for _, fu := range failedUnits {
		d.report(fu, sim.Result{}, false, false, 0, fu.err)
	}
	return alive
}

// terminateLocked marks u terminally failed and cancels any attempt
// still in flight.
func (d *dispatcher) terminateLocked(u *unit) {
	u.done = true
	for _, cancel := range u.cancels {
		cancel()
	}
	d.outstanding--
	d.failed = true
}

// hasCandidateLocked reports whether any worker can still take u. An
// open (but not dead) breaker counts: its daemon may rejoin, and the
// unit's tried mark against it is cleared on the re-probe.
func (d *dispatcher) hasCandidateLocked(u *unit) bool {
	for _, w := range d.workers {
		if w.breaker.state == breakerDead || u.ineligible[w.id] || eligibleErr(u, w) != nil {
			continue
		}
		if u.tried[w.id] && w.breaker.state == breakerClosed {
			continue
		}
		return true
	}
	return false
}

// fill writes one result into every input slot the unit serves. Called
// with dispatcher.mu held when attempts may race (hedges), so exactly
// one attempt writes.
func (d *dispatcher) fill(u *unit, res sim.Result) {
	for _, idx := range u.indices {
		d.results[idx] = res
	}
}

// report emits one progress event per input job of the unit, under the
// same monotonic Done counter sweep.Run guarantees. The first index is
// the representative; the others are marked Deduped.
func (d *dispatcher) report(u *unit, res sim.Result, cached, fromLocalCache bool, elapsed time.Duration, err error) {
	if d.opts.Progress == nil {
		d.progMu.Lock()
		d.done += len(u.indices)
		d.progMu.Unlock()
		return
	}
	d.progMu.Lock()
	defer d.progMu.Unlock()
	for n, idx := range u.indices {
		d.done++
		ev := sweep.Event{
			Index:   idx,
			Total:   len(d.jobs),
			Done:    d.done,
			Label:   d.jobs[idx].Label,
			Key:     u.key,
			Cached:  cached,
			Deduped: n > 0 && !fromLocalCache,
			Err:     err,
		}
		if n == 0 && !cached {
			ev.Elapsed = elapsed
		}
		d.opts.Progress(ev)
	}
}

// SplitEndpoints parses a comma-separated endpoint list flag
// ("host1:8344, host2:8344") into trimmed, non-empty entries — the
// shared parser behind ccsim -servers, experiments -servers, and
// ccsimd -peers.
func SplitEndpoints(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// errJoin renders probe failures compactly.
func errJoin(errs []error) string {
	if len(errs) == 0 {
		return "no endpoints given"
	}
	parts := make([]string, len(errs))
	for i, err := range errs {
		parts[i] = err.Error()
	}
	return strings.Join(parts, "; ")
}
