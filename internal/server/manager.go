// Package server turns the simulator into a long-running network
// service: a job manager layered on the internal/sweep engine, HTTP
// handlers exposing it as a JSON API (see server.go), Server-Sent
// Events streaming per-job progress (sse.go), and operational metrics
// (metrics.go).
//
// The manager's core guarantees:
//
//   - bounded intake: at most QueueDepth simulations wait at once;
//     beyond that submissions are rejected (ErrQueueFull), never
//     silently buffered,
//   - singleflight deduplication: identical configs (same sweep.Key)
//     submitted concurrently by any number of clients — or tenants —
//     run exactly one simulation, and every subscriber receives that
//     one result,
//   - content-addressed persistence: completed results land in the
//     sweep.Cache (fronted by a hot in-memory LRU, see store.go), so a
//     restarted daemon serves previously computed configs instantly
//     and GET /v1/results/{key} works across runs,
//   - multi-tenant fairness: with a tenant Registry configured,
//     staging is weighted fair-share across tenants (schedq.go) with
//     per-tenant queue/concurrency quotas; without one the manager
//     degenerates to the original single-FIFO behavior exactly,
//   - graceful shutdown: Drain stops intake, cancels still-queued
//     jobs, and waits for running simulations to finish.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// Submission errors, mapped to HTTP statuses by the handler layer.
var (
	// ErrQueueFull rejects submissions when the bounded queue is at
	// capacity (HTTP 429).
	ErrQueueFull = errors.New("server: job queue is full")
	// ErrDraining rejects submissions during graceful shutdown (503).
	ErrDraining = errors.New("server: shutting down, not accepting jobs")
	// ErrUnknownJob reports a job ID the manager has never issued (404).
	ErrUnknownJob = errors.New("server: unknown job")
	// ErrDeadlineExceeded fails a job whose propagated deadline expired
	// while it was still queued — it fails fast instead of occupying a
	// scheduler slot it can no longer use.
	ErrDeadlineExceeded = errors.New("server: job deadline exceeded")
	// ErrQuarantined fails a poison job: one whose execution killed
	// PoisonThreshold successive workers. Resubmissions of the same
	// config fail fast instead of cascading through the fleet.
	ErrQuarantined = errors.New("server: job quarantined")
)

// JobState is the lifecycle position of one job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is one submitted simulation: a config plus an optional
// client-chosen label echoed back in statuses and progress events.
type JobSpec struct {
	Label  string     `json:"label,omitempty"`
	Config sim.Config `json:"config"`
	// Tenant attributes the job to a tenant other than the submitting
	// principal. Honored only in open mode (no registry) or when the
	// authenticated caller is a Gateway tenant — the mechanism by which
	// a fleet front forwards the original caller's identity to its
	// peers, keeping fleet-wide quotas and attribution correct.
	// Excluded from sweep.Key: attribution never changes cache keys.
	Tenant string `json:"tenant,omitempty"`
	// DeadlineMs, when positive, is the job's absolute deadline in
	// milliseconds since the Unix epoch. The manager enforces it
	// queue-side: a job still queued past its deadline fails fast with
	// Reason "deadline", and a submission whose deadline the estimated
	// queue drain already exceeds is shed at admission. Normally filled
	// from the X-Ccsimd-Deadline-Ms header (the client's context
	// deadline); excluded from sweep.Key like Tenant — urgency never
	// changes content addresses.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// JobStatus is the wire representation of one job's state. Result is
// populated only on done jobs, and only by the detail/terminal paths
// (job GET, final SSE event), not by listings.
type JobStatus struct {
	ID      string   `json:"id"`
	Label   string   `json:"label,omitempty"`
	Tenant  string   `json:"tenant,omitempty"` // owning tenant ("" in open mode)
	Key     string   `json:"key,omitempty"`    // content address of the config
	State   JobState `json:"state"`
	Cached  bool     `json:"cached,omitempty"`  // served from the persistent cache
	Deduped bool     `json:"deduped,omitempty"` // attached to another job's in-flight run
	Error   string   `json:"error,omitempty"`
	// Reason is the machine-readable cause of a terminal failure
	// (ReasonDeadline, ReasonQuarantined) so fleet schedulers classify
	// failures without parsing Error strings.
	Reason      string      `json:"reason,omitempty"`
	SubmittedAt time.Time   `json:"submitted_at"`
	StartedAt   *time.Time  `json:"started_at,omitempty"`
	FinishedAt  *time.Time  `json:"finished_at,omitempty"`
	ElapsedMs   float64     `json:"elapsed_ms,omitempty"` // simulation wall clock
	Result      *sim.Result `json:"result,omitempty"`
}

// job is the manager-side state of one submission. All fields are
// guarded by Manager.mu.
type job struct {
	id          string
	label       string
	tenant      string // owning tenant name ("" = anonymous/open mode)
	key         string
	state       JobState
	flight      *flight
	cached      bool
	deduped     bool
	err         error
	reason      string    // machine-readable failure cause (ReasonDeadline, ...)
	deadline    time.Time // queue-side enforcement bound; zero = none
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	elapsed     time.Duration
	result      *sim.Result
	served      bool // a status route has answered with the terminal status

	events  []jobEvent // status history, the SSE resume source
	subs    map[int]chan jobEvent
	nextSub int
}

// flight is one physical simulation execution. Concurrent submissions
// of the same config attach their jobs to the existing flight instead
// of creating a second one — the singleflight core of the dedup
// guarantee.
type flight struct {
	key    string // content address; flights are indexed by it
	label  string
	cfg    sim.Config
	jobs   []*job
	state  JobState // queued or running
	ctx    context.Context
	cancel context.CancelFunc

	// tenant is the owner for scheduling and quota accounting: the
	// tenant whose submission created the flight (attached tenants ride
	// along without consuming their own concurrency). priority is the
	// highest Priority among attached tenants — preemption must never
	// cancel a flight a high-priority tenant is waiting on. seq orders
	// arrivals for newest-first preemption.
	tenant   string
	priority int
	seq      uint64

	// handbacks counts how many successive workers this flight's
	// execution has killed (each retireSlot hand-back increments it).
	// At ManagerConfig.PoisonThreshold the flight is quarantined instead
	// of requeued, so one poison job cannot cascade through the fleet.
	handbacks int

	// stream, set when the config enables analysis, fans the flight's
	// live epoch batches out to SSE subscribers and retains the final
	// report for late ones.
	stream *analysisBroker
}

// NoLocalWorkers as ManagerConfig.Workers makes the manager a pure
// dispatch front: it runs no simulations itself and needs at least one
// Remote to make progress (NewManager rejects it otherwise).
const NoLocalWorkers = -1

// ManagerConfig sizes a Manager.
type ManagerConfig struct {
	// Workers is the number of simulations running concurrently on
	// this machine (0 means GOMAXPROCS; NoLocalWorkers means none —
	// valid only together with Remotes).
	Workers int
	// QueueDepth bounds how many distinct simulations may wait for a
	// worker (<= 0 means 64). Submissions beyond it fail ErrQueueFull.
	QueueDepth int
	// Cache, when non-nil, persists every completed result and serves
	// previously computed configs without re-simulating.
	Cache *sweep.Cache
	// Retention bounds how many terminal jobs stay queryable (<= 0
	// means 1024). The daemon is long-running, so finished jobs —
	// each pinning a full sim.Result — are evicted oldest-first beyond
	// this cap; their results remain reachable through the cache via
	// GET /v1/results/{key}. Live jobs are never evicted.
	Retention int

	// Remotes are peer execution backends (ccsimd -peers): each adds
	// Slots() worker goroutines that run queued flights on that peer
	// instead of this machine, with automatic hand-back to the queue
	// when the peer becomes unreachable.
	Remotes []Remote

	// Tenants, when non-nil, turns the manager into a multi-tenant
	// gateway: submissions are attributed to tenants, staged by
	// weighted fair share with per-tenant quotas, and surfaced
	// per-tenant on /metrics. Nil is "open mode": every submission is
	// anonymous and scheduling degenerates to the original single FIFO.
	Tenants *Registry

	// HotResults sizes the hot in-memory LRU fronting the persistent
	// cache (<= 0 means 256). Ignored without a Cache.
	HotResults int

	// TraceRoot, when non-empty, is advertised on /healthz as a shared
	// trace directory: clients may submit trace-file configs whose
	// absolute paths live under it, because this daemon sees the same
	// files at the same paths (NFS mount, shared volume). Without it,
	// trace-file configs are rejected client-side — the daemon would
	// otherwise open the paths on its own filesystem, failing or,
	// worse, silently reading a different file.
	TraceRoot string

	// HedgeAfter, when positive, hedges straggler remote flights: a
	// flight a peer has been running for longer than this launches a
	// local backup execution, first result wins. Safe because the
	// fleet-wide singleflight on sweep.Key guarantees at most one
	// *counted* simulation per config — the losing attempt is canceled
	// and never finishes the flight. Zero disables hedging.
	HedgeAfter time.Duration
	// PoisonThreshold quarantines a flight after its execution killed
	// this many successive workers (0 means 3; negative disables
	// quarantine entirely).
	PoisonThreshold int
	// StorageProbeInterval overrides how often degraded (memory-only)
	// storage probes the disk for recovery; <= 0 keeps the one-second
	// default.
	StorageProbeInterval time.Duration
}

// Manager owns the job table, the dedup index, and the worker pool
// feeding the sweep engine.
type Manager struct {
	cache *sweep.Cache
	// store fronts the cache with a hot LRU (nil without a cache); all
	// manager-side result lookups go through it.
	store *resultStore
	// registry is the tenant table (nil = open mode).
	registry *Registry
	// journal durably maps job IDs to cache keys (<cache path>.jobs) so
	// analysis lookups and fleet metrics survive restarts and retention
	// pruning. Nil without a cache.
	journal *jobJournal

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	retention  int
	workers    int // local worker goroutines
	traceRoot  string
	hedgeAfter time.Duration // straggler threshold for remote flights (0 = no hedging)
	poison     int           // successive worker kills before quarantine (<=0 = never)

	mu       sync.Mutex
	qcond    *sync.Cond // workers wait here for startable flights
	jobs     map[string]*job
	order    []string           // job IDs in submission order
	flights  map[string]*flight // key -> in-flight execution
	sched    *schedQueue        // per-tenant staging queues (schedq.go)
	qclosed  bool               // set by Drain; workers exit once the queue empties
	draining bool
	nextID   uint64
	slots    int // live worker goroutines, local + remote; remote slots retire on peer loss

	// settled is closed and replaced on every terminal transition and
	// every eviction (wakeLocked); status long-polls wait on it.
	settled chan struct{}
	// parkedHook, when set (tests only, before serving), runs each time
	// a status long-poll blocks waiting for a job to settle.
	parkedHook func()

	// quarantined maps content-address keys of poison jobs to the
	// human-readable quarantine cause; resubmissions fail fast.
	quarantined map[string]string
	// avgFlightNs is an EWMA of fresh (non-cached) flight durations,
	// the basis of admission-time deadline shedding: a submission whose
	// deadline the estimated queue drain exceeds is rejected instead of
	// occupying a slot it cannot use.
	avgFlightNs float64

	counters counters
	tstats   map[string]*tenantCounters
}

// tenantCounters is one tenant's share of the job counters, the
// per-tenant block of /metrics. Guarded by Manager.mu.
type tenantCounters struct {
	submitted     uint64
	completed     uint64
	failed        uint64
	canceled      uint64
	deduped       uint64
	cacheHits     uint64
	preempted     uint64 // queued jobs canceled by higher-priority submissions
	quotaRejected uint64 // submissions rejected by MaxQueued/MaxConcurrent quotas
}

// tenantCountersLocked returns (allocating on first use) name's
// counter block. Caller holds m.mu.
func (m *Manager) tenantCountersLocked(name string) *tenantCounters {
	tc := m.tstats[name]
	if tc == nil {
		tc = &tenantCounters{}
		m.tstats[name] = tc
	}
	return tc
}

// NewManager starts cfg.Workers local worker goroutines plus Slots()
// goroutines per remote backend and returns the manager. Call Drain to
// stop it.
func NewManager(cfg ManagerConfig) *Manager {
	workers := cfg.Workers
	switch {
	case workers == NoLocalWorkers:
		workers = 0
		if len(cfg.Remotes) == 0 {
			// A manager with no execution capacity would accept jobs
			// and never run them; keep one local worker instead.
			workers = 1
		}
	case workers <= 0:
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	retention := cfg.Retention
	if retention <= 0 {
		retention = 1024
	}
	poison := cfg.PoisonThreshold
	if poison == 0 {
		poison = 3
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cache:       cfg.Cache,
		store:       newResultStore(cfg.Cache, cfg.HotResults),
		registry:    cfg.Tenants,
		retention:   retention,
		workers:     workers,
		traceRoot:   cfg.TraceRoot,
		hedgeAfter:  cfg.HedgeAfter,
		poison:      poison,
		ctx:         ctx,
		cancel:      cancel,
		jobs:        map[string]*job{},
		flights:     map[string]*flight{},
		sched:       newSchedQueue(depth),
		tstats:      map[string]*tenantCounters{},
		quarantined: map[string]string{},
		settled:     make(chan struct{}),
	}
	m.qcond = sync.NewCond(&m.mu)
	if cfg.Cache != nil {
		if cfg.StorageProbeInterval > 0 {
			cfg.Cache.SetStorageProbeInterval(cfg.StorageProbeInterval)
		}
		// The journal keeps a wider window than the job table: an entry is
		// a one-line ID->key mapping, so retaining 8x the in-memory
		// retention is cheap, and it is exactly the evicted jobs — the ones
		// no longer in the table — whose IDs the journal must still resolve.
		m.journal = openJournal(cfg.Cache.Path()+".jobs", 8*retention)
		if cfg.StorageProbeInterval > 0 {
			m.journal.setStorageProbeInterval(cfg.StorageProbeInterval)
		}
		if max := m.journal.maxID(); max > m.nextID {
			m.nextID = max
		}
		m.replayJournal()
	}
	m.slots = workers
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
	for _, r := range cfg.Remotes {
		slots := r.Slots()
		if slots < 1 {
			slots = 1
		}
		m.slots += slots
		m.wg.Add(slots)
		for i := 0; i < slots; i++ {
			go m.remoteWorker(r)
		}
	}
	// The deadline sweeper fails queued jobs whose deadline passed. Not
	// in m.wg: it lives on m.ctx, which Drain cancels after the workers
	// finish.
	go m.expireLoop()
	return m
}

// replayJournal rebuilds the fleet analysis aggregates from the
// journaled jobs whose reports still live in the cache, so /metrics
// reflects the daemon's history across restarts. One accumulation per
// distinct key, mirroring the live rule of one per executed flight
// (cache-hit submissions of the same config do not double-count).
// Runs before the workers start, so no locking is needed.
func (m *Manager) replayJournal() {
	seen := map[string]bool{}
	for _, e := range m.journal.entries() {
		if e.State != StateDone || e.Key == "" || seen[e.Key] {
			continue
		}
		seen[e.Key] = true
		res, ok := m.cache.Lookup(e.Key)
		if !ok || res.Analysis == nil {
			continue
		}
		m.counters.accumulateAnalysisLocked(res.Analysis.Totals)
		if e.Worker != "" {
			ws := m.counters.worker(e.Worker)
			ws.flights++
			if e.Worker == "cache" {
				ws.cacheHits++
			}
			ws.accumulate(res.Analysis)
		}
	}
}

// Cache returns the manager's persistent result store (may be nil).
func (m *Manager) Cache() *sweep.Cache { return m.cache }

// Registry returns the tenant registry (nil in open mode).
func (m *Manager) Registry() *Registry { return m.registry }

// LookupResult resolves a content-address key through the tiered
// result store (hot LRU, then the persistent cache).
func (m *Manager) LookupResult(key string) (sim.Result, bool) {
	return m.store.Lookup(key)
}

// Workers returns the local simulation concurrency, advertised on
// /healthz so fleet dispatchers can weight assignment by capacity.
func (m *Manager) Workers() int { return m.workers }

// TraceRoot returns the advertised shared trace directory ("" when the
// daemon has none).
func (m *Manager) TraceRoot() string { return m.traceRoot }

// StorageDegraded reports whether any durable tier (result cache, job
// journal) is currently running memory-only after disk write failures.
// Surfaced as a /readyz warning and the storage_degraded metric; the
// daemon keeps serving — results and job state stay correct in memory
// and the disk is re-probed automatically.
func (m *Manager) StorageDegraded() bool {
	if m.cache != nil {
		if degraded, _, _ := m.cache.StorageHealth(); degraded {
			return true
		}
	}
	degraded, _, _ := m.journal.health()
	return degraded
}

// Submit validates and enqueues a batch of jobs as the anonymous
// caller — the open-mode entry point, byte-identical to the
// pre-gateway behavior when no registry is configured.
func (m *Manager) Submit(specs []JobSpec) ([]JobStatus, error) {
	return m.SubmitAs(Tenant{}, specs)
}

// SubmitAs validates and enqueues a batch of jobs atomically on behalf
// of caller: either every spec is accepted (each getting a job ID) or
// none is. Identical configs — within the batch or against jobs
// already queued/running, across tenants — share one simulation;
// configs already in the result store complete immediately without
// queueing. Batches that would push the owning tenant past MaxQueued
// fail with a QuotaError; batches overflowing the shared queue either
// preempt queued lower-priority flights or fail ErrQueueFull.
func (m *Manager) SubmitAs(caller Tenant, specs []JobSpec) ([]JobStatus, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("server: empty submission")
	}
	keys := make([]string, len(specs))
	owners := make([]Tenant, len(specs))
	deadlines := make([]time.Time, len(specs))
	for i, spec := range specs {
		if err := spec.Config.Validate(); err != nil {
			return nil, fmt.Errorf("server: job %d: %w", i, err)
		}
		if spec.DeadlineMs > 0 {
			deadlines[i] = time.UnixMilli(spec.DeadlineMs)
		}
		// Hash outside the lock: keys are a pure function of the spec,
		// and marshal+SHA-256 per config would otherwise stall every
		// status request and completing flight behind this batch.
		if key, err := sweep.Key(spec.Config); err == nil {
			keys[i] = key
		}
		// Uncacheable (custom-mechanism) configs cannot arrive over
		// JSON, but guard anyway: they run as unique key-less flights.

		// Resolve the owning tenant: the caller, unless the spec names
		// another tenant and the caller may speak for it (fleet fronts
		// forwarding the original submitter, or open mode).
		name := caller.Name
		if spec.Tenant != "" && (caller.Gateway || m.registry == nil) {
			name = spec.Tenant
		}
		owners[i] = m.registry.Lookup(name)
	}

	// Journal writes do file I/O; this defer is registered before the
	// unlock defer so it runs after the lock is released.
	var recs []journalEntry
	defer func() { m.journal.record(recs...) }()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	// Poison quarantine: a config that killed PoisonThreshold successive
	// workers fails fast on resubmission instead of cascading again.
	for i, key := range keys {
		if cause, ok := m.quarantined[key]; ok && key != "" {
			return nil, fmt.Errorf("server: job %d: %w (%s)", i, ErrQuarantined, cause)
		}
	}

	// Count the fresh flights this batch needs, so a batch that would
	// overflow the queue (or a tenant quota) is rejected before any job
	// is created.
	type plan struct {
		key    string
		cached *sim.Result
		flight *flight // existing flight to attach to
		fresh  bool    // creates a new flight (queue capacity consumer)
	}
	plans := make([]plan, len(specs))
	fresh := 0
	batchFlights := map[string]bool{}
	queuedAdd := map[string]int{} // per-tenant jobs this batch would queue
	for i := range specs {
		key := keys[i]
		plans[i].key = key
		if key != "" {
			if res, ok := m.store.Lookup(key); ok {
				plans[i].cached = &res
				continue
			}
			if f, ok := m.flights[key]; ok {
				plans[i].flight = f
				if f.state == StateQueued {
					queuedAdd[owners[i].Name]++
				}
				continue
			}
			if batchFlights[key] {
				queuedAdd[owners[i].Name]++
				continue // attaches to a flight created earlier in this batch
			}
			batchFlights[key] = true
		}
		plans[i].fresh = true
		fresh++
		queuedAdd[owners[i].Name]++
	}

	// Admission-time load shedding: a fresh submission whose deadline
	// the estimated queue drain already exceeds (or has already passed)
	// would only waste a scheduler slot — reject it now so the client
	// retries a less loaded worker while there is still time.
	est := m.drainEstimateLocked(fresh)
	for i := range specs {
		if !plans[i].fresh || deadlines[i].IsZero() {
			continue
		}
		if wait := time.Until(deadlines[i]); wait <= 0 || (est > 0 && wait < est) {
			m.counters.deadlineShed++
			return nil, &DeadlineError{JobIndex: i, Wait: wait, Estimate: est}
		}
	}

	// Per-tenant MaxQueued quota: the tenant's jobs already waiting plus
	// what this batch would add must fit.
	for name, add := range queuedAdd {
		owner := m.registry.Lookup(name)
		if owner.MaxQueued <= 0 {
			continue
		}
		waiting := 0
		for _, j := range m.jobs {
			if j.tenant == name && j.state == StateQueued {
				waiting++
			}
		}
		if waiting+add > owner.MaxQueued {
			m.tenantCountersLocked(name).quotaRejected++
			return nil, &QuotaError{Tenant: name, Quota: "queued", Limit: owner.MaxQueued}
		}
	}

	if m.sched.total+fresh > m.sched.capacity {
		// A higher-priority submission may make room by preempting
		// queued (never running) flights of strictly lower classes.
		prio, hasFresh := 0, false
		for i := range specs {
			if plans[i].cached == nil && plans[i].flight == nil {
				if p := owners[i].Priority; !hasFresh || p < prio {
					prio, hasFresh = p, true
				}
			}
		}
		need := m.sched.total + fresh - m.sched.capacity
		victims := m.sched.preemptible(need, prio)
		if victims == nil {
			return nil, ErrQueueFull
		}
		for _, v := range victims {
			m.tenantCountersLocked(v.tenant).preempted++
			for _, j := range v.jobs {
				if !j.state.Terminal() {
					m.cancelJobLocked(j, "preempted by a higher-priority submission")
				}
			}
		}
	}

	now := time.Now()
	statuses := make([]JobStatus, len(specs))
	for i, spec := range specs {
		owner := owners[i]
		m.nextID++
		j := &job{
			id:          fmt.Sprintf("job-%06d", m.nextID),
			label:       spec.Label,
			tenant:      owner.Name,
			key:         plans[i].key,
			deadline:    deadlines[i],
			submittedAt: now,
			subs:        map[int]chan jobEvent{},
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		m.counters.submitted++
		var tc *tenantCounters
		if owner.Name != "" {
			tc = m.tenantCountersLocked(owner.Name)
			tc.submitted++
		}

		switch {
		case plans[i].cached != nil:
			j.state = StateDone
			j.cached = true
			j.finishedAt = now
			j.result = plans[i].cached
			m.counters.completed++
			m.counters.cacheHits++
			if tc != nil {
				tc.completed++
				tc.cacheHits++
			}
			// The "cache" slot counts service, not production: the report
			// was accumulated when the producing flight finished, so no
			// analysis accumulate here.
			ws := m.counters.worker("cache")
			ws.flights++
			ws.cacheHits++
			recs = append(recs, journalEntry{
				ID: j.id, Key: j.key, Label: j.label, Tenant: j.tenant,
				State: StateDone, Worker: "cache", FinishedAt: now,
			})
		case plans[i].flight != nil:
			m.attachLocked(j, plans[i].flight, owner)
		default:
			var f *flight
			if j.key != "" {
				f = m.flights[j.key] // flight created earlier in this batch
			}
			if f != nil {
				m.attachLocked(j, f, owner)
				break
			}
			fctx, fcancel := context.WithCancel(m.ctx)
			f = &flight{
				key:      j.key,
				label:    spec.Label,
				cfg:      spec.Config,
				state:    StateQueued,
				ctx:      fctx,
				cancel:   fcancel,
				tenant:   owner.Name,
				priority: owner.Priority,
			}
			if ac := spec.Config.Analysis; ac != nil && ac.Enabled {
				f.stream = newAnalysisBroker()
			}
			j.state = StateQueued
			j.flight = f
			f.jobs = append(f.jobs, j)
			if f.key != "" {
				m.flights[f.key] = f
			}
			m.sched.push(f, owner) // capacity pre-checked above
			m.qcond.Broadcast()
		}
		// Seed the event history with the submission snapshot, so SSE
		// subscribers can replay the full lifecycle from sequence 1.
		m.recordEventLocked(j, m.statusLocked(j, j.state.Terminal()))
		statuses[i] = m.statusLocked(j, true)
	}
	m.pruneLocked()
	return statuses, nil
}

// attachLocked joins j to an existing flight: it will complete with the
// flight's result without a simulation of its own. The flight's
// preemption shield rises to the highest attached priority, so a
// higher-class tenant's deduped wait is never undone by a preemption
// aimed at the flight's original owner.
func (m *Manager) attachLocked(j *job, f *flight, owner Tenant) {
	j.deduped = true
	j.flight = f
	j.state = f.state // queued or running
	if f.state == StateRunning {
		j.startedAt = time.Now()
	}
	f.jobs = append(f.jobs, j)
	m.counters.deduped++
	if owner.Name != "" {
		m.tenantCountersLocked(owner.Name).deduped++
	}
	if owner.Priority > f.priority {
		f.priority = owner.Priority
	}
}

// Job returns the status of one job, result included when done.
func (m *Manager) Job(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return m.statusLocked(j, true), nil
}

// Jobs lists every job in submission order, without result payloads.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.jobs[id], false))
	}
	return out
}

// JobsByID returns the statuses of the named jobs, without result
// payloads, omitting IDs the manager no longer (or never) knew.
func (m *Manager) JobsByID(ids []string) []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.jobs[id]; ok {
			out = append(out, m.statusLocked(j, false))
		}
	}
	return out
}

// Cancel moves a non-terminal job to canceled. A queued simulation
// whose subscribers are all canceled is skipped entirely; a running
// one finishes (a single simulation cannot be interrupted) and its
// result is still cached, but no canceled job flips back to done.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	if j.state.Terminal() {
		return m.statusLocked(j, true), nil
	}
	m.cancelJobLocked(j, "canceled by client")
	st := m.statusLocked(j, true)
	m.pruneLocked()
	return st, nil
}

// canSeeLocked reports whether caller may observe (or act on) j: in
// open mode everyone sees everything; with a registry, tenants see only
// their own jobs while Gateway principals (fleet fronts, operators)
// see all.
func (m *Manager) canSeeLocked(caller Tenant, j *job) bool {
	return m.registry == nil || caller.Gateway || j.tenant == caller.Name
}

// JobAs is Job scoped to caller's visibility; another tenant's job
// reads as unknown, never leaking its existence.
func (m *Manager) JobAs(caller Tenant, id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || !m.canSeeLocked(caller, j) {
		return JobStatus{}, ErrUnknownJob
	}
	return m.statusLocked(j, true), nil
}

// JobsAs is Jobs scoped to caller's visibility.
func (m *Manager) JobsAs(caller Tenant) []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		if j := m.jobs[id]; m.canSeeLocked(caller, j) {
			out = append(out, m.statusLocked(j, false))
		}
	}
	return out
}

// jobVisibleAs reports whether caller may reference job id, consulting
// the live table then the durable journal (for evicted and pre-restart
// IDs). Unknown IDs read as visible — the downstream lookup 404s
// uniformly, so invisibility and nonexistence are indistinguishable.
func (m *Manager) jobVisibleAs(caller Tenant, id string) bool {
	if m.registry == nil || caller.Gateway {
		return true
	}
	m.mu.Lock()
	if j, ok := m.jobs[id]; ok {
		vis := j.tenant == caller.Name
		m.mu.Unlock()
		return vis
	}
	m.mu.Unlock()
	if e, ok := m.journal.lookup(id); ok {
		// Pre-gateway journal generations carry no tenant; their results
		// were produced in open mode and stay readable.
		return e.Tenant == "" || e.Tenant == caller.Name
	}
	return true
}

// CancelAs is Cancel scoped to caller's visibility.
func (m *Manager) CancelAs(caller Tenant, id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || !m.canSeeLocked(caller, j) {
		return JobStatus{}, ErrUnknownJob
	}
	if j.state.Terminal() {
		return m.statusLocked(j, true), nil
	}
	m.cancelJobLocked(j, "canceled by client")
	st := m.statusLocked(j, true)
	m.pruneLocked()
	return st, nil
}

// cancelJobLocked finalizes one job as canceled and, when it was the
// last live subscriber of a still-queued flight, drops the flight from
// the dedup index (so later identical submissions start fresh instead
// of attaching to a doomed flight) and cancels its context so the
// simulation never starts. A running flight is left alone: a single
// simulation cannot be interrupted, and poisoning its context would
// fail jobs that attach between now and its completion.
func (m *Manager) cancelJobLocked(j *job, reason string) {
	j.state = StateCanceled
	j.err = errors.New(reason)
	j.finishedAt = time.Now()
	m.counters.canceled++
	if j.tenant != "" {
		m.tenantCountersLocked(j.tenant).canceled++
	}
	m.notifyLocked(j)
	if f := j.flight; f != nil && f.state == StateQueued {
		live := false
		for _, other := range f.jobs {
			if !other.state.Terminal() {
				live = true
				break
			}
		}
		if !live {
			f.state = StateCanceled
			m.dropFlightLocked(f)
			// Drop the dead flight from its subqueue so the slot frees
			// immediately instead of tombstoning the bounded queue until
			// a worker skips it.
			m.sched.remove(f)
		}
	}
}

// DeadlineError rejects a submission at admission because its deadline
// cannot be met: either it already passed, or the estimated queue drain
// time exceeds it. The handler layer maps it to 503 with the structured
// code ErrCodeDeadlineUnmeetable, so clients distinguish "this worker
// is too loaded" (retry elsewhere) from a permanent rejection.
type DeadlineError struct {
	JobIndex int           // position in the submitted batch
	Wait     time.Duration // time left until the deadline (<= 0: passed)
	Estimate time.Duration // estimated queue drain at admission (0: unknown)
}

// Error implements error.
func (e *DeadlineError) Error() string {
	if e.Wait <= 0 {
		return fmt.Sprintf("server: job %d: deadline already expired at submission", e.JobIndex)
	}
	return fmt.Sprintf("server: job %d: deadline unmeetable: estimated queue drain %v exceeds the %v left before the deadline",
		e.JobIndex, e.Estimate.Round(time.Millisecond), e.Wait.Round(time.Millisecond))
}

// drainEstimateLocked estimates how long the queue (plus fresh incoming
// flights) takes to drain, from the EWMA of fresh flight durations and
// the live slot count. Zero until enough history exists. Caller holds
// m.mu.
func (m *Manager) drainEstimateLocked(fresh int) time.Duration {
	if m.avgFlightNs <= 0 || m.slots <= 0 {
		return 0
	}
	backlog := m.sched.total + fresh + m.counters.running
	return time.Duration(float64(backlog) * m.avgFlightNs / float64(m.slots))
}

// expireLoop periodically fails queued jobs whose deadline passed, so
// they stop occupying scheduler slots they can no longer use. Running
// jobs are left alone — a single simulation cannot be interrupted, and
// its result is still worth caching.
func (m *Manager) expireLoop() {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case now := <-t.C:
			m.expireQueued(now)
		}
	}
}

// expireQueued fails every queued job whose deadline passed, dropping
// flights left with no live subscribers from the queue entirely.
func (m *Manager) expireQueued(now time.Time) {
	var recs []journalEntry
	m.mu.Lock()
	for _, id := range m.order {
		j := m.jobs[id]
		if j.state != StateQueued || j.deadline.IsZero() || now.Before(j.deadline) {
			continue
		}
		recs = append(recs, m.failJobLocked(j, fmt.Errorf("%w: expired after %v queued", ErrDeadlineExceeded, now.Sub(j.submittedAt).Round(time.Millisecond)), ReasonDeadline))
		if f := j.flight; f != nil && f.state == StateQueued {
			live := false
			for _, other := range f.jobs {
				if !other.state.Terminal() {
					live = true
					break
				}
			}
			if !live {
				f.state = StateCanceled
				m.dropFlightLocked(f)
				m.sched.remove(f)
			}
		}
	}
	if len(recs) > 0 {
		m.pruneLocked()
	}
	m.mu.Unlock()
	m.journal.record(recs...)
}

// failJobLocked finalizes one job as failed with a machine-readable
// reason and returns its journal entry. The caller owns any flight
// cleanup. Caller holds m.mu.
func (m *Manager) failJobLocked(j *job, err error, reason string) journalEntry {
	j.state = StateFailed
	j.err = err
	j.reason = reason
	j.finishedAt = time.Now()
	m.counters.failed++
	if reason == ReasonDeadline {
		m.counters.deadlineExpired++
	}
	if j.tenant != "" {
		m.tenantCountersLocked(j.tenant).failed++
	}
	m.notifyLocked(j)
	return journalEntry{
		ID: j.id, Key: j.key, Label: j.label, Tenant: j.tenant,
		State: StateFailed, FinishedAt: j.finishedAt,
	}
}

// failureReason maps a flight error to the machine-readable Reason
// carried on JobStatus ("" for unclassified failures).
func failureReason(err error) string {
	var remoteErr *RemoteJobError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDeadlineExceeded):
		return ReasonDeadline
	case errors.Is(err, ErrQuarantined):
		return ReasonQuarantined
	case errors.As(err, &remoteErr):
		return remoteErr.Reason // propagate the peer's classification
	}
	return ""
}

// nextFlight blocks until the scheduler has a startable flight,
// returning ok=false once Drain closed the queue and nothing startable
// remains. Picking accounts one running slot to the flight's tenant,
// released by finishFlight (or startFlight when the flight is dead).
func (m *Manager) nextFlight() (*flight, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if f := m.sched.pick(); f != nil {
			return f, true
		}
		if m.qclosed {
			return nil, false
		}
		m.qcond.Wait()
	}
}

// worker picks flights until Drain closes the queue.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		f, ok := m.nextFlight()
		if !ok {
			return
		}
		m.runFlight(f)
	}
}

// remoteWorker is one execution slot on a peer daemon: it picks flights
// like a local worker but ships them to r. When the peer becomes
// unreachable the slot retires — the in-flight flight is handed back to
// the queue (or executed locally when it cannot be), and if this was
// the manager's last live slot the goroutine degrades to a local worker
// so queued flights are never orphaned.
func (m *Manager) remoteWorker(r Remote) {
	defer m.wg.Done()
	for {
		f, ok := m.nextFlight()
		if !ok {
			return
		}
		if !m.startFlight(f) {
			continue
		}
		switch m.execFlightRemote(r, f) {
		case flightSettled:
			continue
		case peerLostSettled:
			// A hedge finished the flight after the peer vanished: retire
			// the slot without a hand-back.
			if last := m.dropSlot(); !last {
				return
			}
		case peerLost:
			if last := m.retireSlot(f); !last {
				return
			}
		}
		for {
			f, ok := m.nextFlight()
			if !ok {
				return
			}
			m.runFlight(f)
		}
	}
}

// runFlight executes one flight locally, start to finish.
func (m *Manager) runFlight(f *flight) {
	if !m.startFlight(f) {
		return
	}
	m.execFlightLocal(f)
}

// startFlight moves a dequeued flight to running and reports whether it
// should execute; a flight whose subscribers all canceled while it was
// queued (or whose context died) is finalized instead.
func (m *Manager) startFlight(f *flight) bool {
	// Journal writes do file I/O; registered before the lock so it runs
	// after the explicit unlocks below.
	var recs []journalEntry
	defer func() { m.journal.record(recs...) }()
	m.mu.Lock()
	// Deadline enforcement at the last queue-side moment: subscribers
	// whose deadline passed while the flight waited fail fast instead of
	// riding a simulation they can no longer use.
	now := time.Now()
	for _, j := range f.jobs {
		if !j.state.Terminal() && !j.deadline.IsZero() && now.After(j.deadline) {
			recs = append(recs, m.failJobLocked(j, fmt.Errorf("%w: expired before the simulation could start", ErrDeadlineExceeded), ReasonDeadline))
		}
	}
	live := 0
	for _, j := range f.jobs {
		if !j.state.Terminal() {
			live++
		}
	}
	if live == 0 || f.ctx.Err() != nil {
		// Every subscriber canceled while queued (or the manager is
		// tearing down): skip the simulation. Finalize any straggler
		// jobs so no subscriber waits on a flight that will never run.
		for _, j := range f.jobs {
			if !j.state.Terminal() {
				m.cancelJobLocked(j, "canceled before the simulation started")
			}
		}
		m.dropFlightLocked(f)
		m.sched.release(f) // the pick's running slot, never used
		m.qcond.Broadcast()
		m.pruneLocked()
		m.mu.Unlock()
		return false
	}
	f.state = StateRunning
	m.counters.running++
	now = time.Now()
	for _, j := range f.jobs {
		if j.state == StateQueued {
			j.state = StateRunning
			j.startedAt = now
			m.notifyLocked(j)
		}
	}
	m.mu.Unlock()
	return true
}

// simulateFlight runs a started flight through the sweep engine on this
// machine, without finishing it — the caller decides what the outcome
// means (the normal local path finishes the flight with it; a hedge
// only wins if the remote attempt has not already finished). When the
// flight carries a stream broker and hedge is false, the analysis
// collector's live batches are routed into it on the simulation
// goroutine; the cloned config keeps the content address unchanged
// (Stream is excluded from the key). Hedge runs skip the broker so a
// losing backup never races the winner's stream seal.
func (m *Manager) simulateFlight(f *flight, hedge bool) (sim.Result, sweep.Event, error) {
	cfg := f.cfg
	if !hedge && f.stream != nil && cfg.Analysis != nil {
		ac := *cfg.Analysis
		ac.Stream = f.stream.ingest
		cfg.Analysis = &ac
	}
	var ev sweep.Event
	results, err := sweep.Run(f.ctx, []sweep.Job{{Label: f.label, Config: cfg}}, sweep.Options{
		Workers:  1,
		Cache:    m.cache,
		Progress: func(e sweep.Event) { ev = e },
	})
	var res sim.Result
	if err == nil {
		res = results[0]
		if f.key != "" {
			// sweep.Run already wrote the cold tier; promote into the
			// hot LRU so local completions are served hot just like
			// remote ones (store.Put on the peer path).
			m.store.promote(f.key, res)
		}
	}
	return res, ev, err
}

// execFlightLocal runs a started flight locally, start to finish.
func (m *Manager) execFlightLocal(f *flight) {
	res, ev, err := m.simulateFlight(f, false)
	m.finishFlight(f, "local", res, ev.Elapsed, ev.Cached, false, err)
}

// remoteVerdict is the outcome of one remote flight execution.
type remoteVerdict int

const (
	// flightSettled: the flight reached a terminal state (on the peer, or
	// locally via the ineligible fallback or a winning hedge while the
	// peer stayed healthy); the slot keeps serving the peer.
	flightSettled remoteVerdict = iota
	// peerLost: transport failure with the flight still running; the
	// caller hands it back via retireSlot.
	peerLost
	// peerLostSettled: the transport died but a hedge finished the
	// flight; the slot retires without a hand-back.
	peerLostSettled
)

// remoteSpec builds the JobSpec forwarded to a peer: the owning tenant
// (so the peer attributes work — and its fleet-wide dedup and quotas —
// to the original caller, not to this forwarding daemon) and the widest
// deadline shared by every live subscriber. The deadline is forwarded
// only when every live subscriber has one: a peer must never fail a
// flight early while a deadline-less subscriber is still waiting on it.
func (m *Manager) remoteSpec(f *flight) JobSpec {
	spec := JobSpec{Label: f.label, Config: f.cfg, Tenant: f.tenant}
	m.mu.Lock()
	latest, all := time.Time{}, true
	for _, j := range f.jobs {
		if j.state.Terminal() {
			continue
		}
		if j.deadline.IsZero() {
			all = false
			break
		}
		if j.deadline.After(latest) {
			latest = j.deadline
		}
	}
	m.mu.Unlock()
	if all && !latest.IsZero() {
		spec.DeadlineMs = latest.UnixMilli()
	}
	return spec
}

// execFlightRemote runs a started flight on r, hedging stragglers with
// a local backup when the manager was configured with HedgeAfter.
func (m *Manager) execFlightRemote(r Remote, f *flight) remoteVerdict {
	if m.hedgeAfter > 0 {
		return m.execFlightHedged(r, f)
	}
	start := time.Now()
	st, err := r.Run(f.ctx, m.remoteSpec(f))
	if m.settleRemote(r, f, st, err, time.Since(start), false) {
		return flightSettled
	}
	return peerLost
}

// execFlightHedged races the peer against a local backup: the remote
// attempt starts immediately, and if it is still running after
// hedgeAfter a local execution launches too — first finished result
// wins and cancels the loser, so hedges never double-finish a flight
// (and never double-count SimulationsRun: only the winner reaches
// finishFlight).
func (m *Manager) execFlightHedged(r Remote, f *flight) remoteVerdict {
	type remoteOut struct {
		st  JobStatus
		err error
	}
	type localOut struct {
		res sim.Result
		ev  sweep.Event
		err error
	}
	start := time.Now()
	rctx, rcancel := context.WithCancel(f.ctx)
	defer rcancel()
	rch := make(chan remoteOut, 1)
	spec := m.remoteSpec(f)
	go func() {
		st, err := r.Run(rctx, spec)
		rch <- remoteOut{st, err}
	}()
	var lch chan localOut // nil until the hedge launches; nil in select blocks forever
	timer := time.NewTimer(m.hedgeAfter)
	defer timer.Stop()
	for {
		select {
		case o := <-rch:
			elapsed := time.Since(start)
			hedged := lch != nil
			if m.settleRemote(r, f, o.st, o.err, elapsed, hedged) {
				return flightSettled
			}
			if !hedged {
				return peerLost
			}
			// The peer is gone (or became ineligible) but the hedge is
			// already simulating this flight locally: let it finish —
			// handing the flight back would run it a third time.
			lo := <-lch
			m.finishFlight(f, "local", lo.res, lo.ev.Elapsed, lo.ev.Cached, false, lo.err)
			m.mu.Lock()
			m.counters.hedgesWon++
			m.mu.Unlock()
			if errors.Is(o.err, ErrIneligible) {
				return flightSettled // the peer is healthy; keep its slot
			}
			return peerLostSettled
		case <-timer.C:
			if lch != nil {
				continue
			}
			lch = make(chan localOut, 1)
			m.mu.Lock()
			m.counters.hedgesLaunched++
			m.mu.Unlock()
			go func() {
				res, ev, err := m.simulateFlight(f, true)
				lch <- localOut{res, ev, err}
			}()
		case lo := <-lch:
			// The local backup beat the straggling peer: cancel the remote
			// attempt and finish with the local result.
			rcancel()
			m.finishFlight(f, "local", lo.res, lo.ev.Elapsed, lo.ev.Cached, false, lo.err)
			m.mu.Lock()
			m.counters.hedgesWon++
			m.mu.Unlock()
			return flightSettled
		}
	}
}

// settleRemote applies one remote outcome to the flight. It reports
// true when the flight reached a terminal state; false means a
// transport failure (the peer is unreachable — the caller retires the
// slot or falls back to a running hedge) or, when hedged, an
// ineligibility verdict the running hedge will resolve.
func (m *Manager) settleRemote(r Remote, f *flight, st JobStatus, err error, elapsed time.Duration, hedged bool) bool {
	var remoteErr *RemoteJobError
	switch {
	case err == nil && st.Result == nil:
		m.finishFlight(f, r.Name(), sim.Result{}, elapsed, false, true,
			fmt.Errorf("server: peer %s finished job without a result", r.Name()))
	case err == nil:
		res := *st.Result
		if f.key != "" {
			// Land the peer's result in this daemon's result store (hot
			// tier + persistent cache) so restarts and identical
			// submissions serve it locally, under the key computed at
			// submission — never re-digested, so a trace rewritten
			// mid-flight cannot fail a successful run (key-less flights
			// skip caching, like the local path; cacheless managers have
			// a nil store; a degraded cache absorbs the write in memory).
			if perr := m.store.Put(f.key, res); perr != nil {
				m.finishFlight(f, r.Name(), sim.Result{}, elapsed, false, true, perr)
				return true
			}
		}
		m.finishFlight(f, r.Name(), res, elapsed, st.Cached, true, nil)
	case errors.As(err, &remoteErr) || f.ctx.Err() != nil:
		// The peer ran the job and the simulation failed (retrying
		// elsewhere would fail identically), or our own flight was
		// canceled: terminal either way.
		m.finishFlight(f, r.Name(), sim.Result{}, elapsed, false, true, err)
	case errors.Is(err, ErrIneligible):
		// This peer must not run the job (e.g. it cannot see the
		// config's trace files) but it is perfectly healthy: execute
		// the flight on this goroutine instead — requeueing would
		// livelock a fleet whose every peer is ineligible, and failing
		// would punish a job local execution can still satisfy. With a
		// hedge already running, that local execution exists: defer to it.
		if hedged {
			return false
		}
		m.execFlightLocal(f)
	default:
		return false
	}
	return true
}

// retireSlot hands back the flight a vanished peer was running and
// removes this worker from the live-slot count. The flight returns to
// the queue for another worker when possible; otherwise — queue full,
// draining, or no other slot left to ever pick it up — it executes
// locally on this goroutine, because a started flight must reach a
// terminal state. Returns true when this was the last live slot, in
// which case the caller keeps serving the queue locally.
func (m *Manager) retireSlot(f *flight) (last bool) {
	m.mu.Lock()
	m.slots--
	last = m.slots == 0
	// Poison quarantine: a flight whose execution has now killed
	// m.poison successive workers is the common cause, not the victim.
	// Fail and quarantine it instead of handing it to yet another
	// worker.
	f.handbacks++
	if m.poison > 0 && f.handbacks >= m.poison {
		m.counters.quarantined++
		if f.key != "" {
			m.quarantined[f.key] = fmt.Sprintf("killed %d successive workers", f.handbacks)
		}
		m.mu.Unlock()
		m.finishFlight(f, "quarantine", sim.Result{}, 0, false, true,
			fmt.Errorf("%w: execution killed %d successive workers", ErrQuarantined, f.handbacks))
		return last
	}
	if !last && !m.draining && m.sched.total < m.sched.capacity {
		// Hand-back visible to status readers/SSE as running -> queued.
		f.state = StateQueued
		for _, j := range f.jobs {
			if j.state == StateRunning {
				j.state = StateQueued
				m.notifyLocked(j)
			}
		}
		m.counters.running--
		m.counters.requeued++
		m.sched.release(f) // re-picked later, re-accounted then
		m.sched.push(f, m.registry.Lookup(f.tenant))
		m.qcond.Broadcast()
		m.mu.Unlock()
		return last
	}
	m.mu.Unlock()
	m.execFlightLocal(f)
	return last
}

// dropSlot removes a retiring worker from the live-slot count without a
// flight hand-back (the flight already settled). Returns true when this
// was the last live slot.
func (m *Manager) dropSlot() (last bool) {
	m.mu.Lock()
	m.slots--
	last = m.slots == 0
	m.mu.Unlock()
	return last
}

// finishFlight completes every job attached to a started flight with
// its outcome. worker names the slot that resolved the flight ("local"
// or a peer) for the journal and the per-worker metrics; cached marks
// results served from a cache (this daemon's or the executing peer's);
// remote marks executions that happened on a peer, counted separately
// because the peer's own counters record the simulation.
func (m *Manager) finishFlight(f *flight, worker string, res sim.Result, elapsed time.Duration, cached, remote bool, err error) {
	var recs []journalEntry
	m.mu.Lock()
	m.counters.running--
	m.dropFlightLocked(f)
	m.sched.release(f)
	// A finished flight frees capacity and (for capped tenants) a
	// concurrency slot; wake waiting workers to re-pick.
	m.qcond.Broadcast()
	switch {
	case err != nil:
		reason := failureReason(err)
		for _, j := range f.jobs {
			if j.state.Terminal() {
				continue
			}
			j.state = StateFailed
			j.err = err
			j.reason = reason
			j.finishedAt = time.Now()
			j.elapsed = elapsed
			m.counters.failed++
			if j.tenant != "" {
				m.tenantCountersLocked(j.tenant).failed++
			}
			m.notifyLocked(j)
			recs = append(recs, journalEntry{
				ID: j.id, Key: j.key, Label: j.label, Tenant: j.tenant,
				State: StateFailed, Worker: worker, FinishedAt: j.finishedAt,
			})
		}
	default:
		switch {
		case cached:
			m.counters.cacheHits++
		case remote:
			m.counters.remoteSims++
		default:
			m.counters.simulations++
		}
		if !cached && elapsed > 0 {
			// Fresh execution: fold its duration into the drain-estimate
			// EWMA that admission-time deadline shedding consults.
			const alpha = 0.3
			if m.avgFlightNs == 0 {
				m.avgFlightNs = float64(elapsed)
			} else {
				m.avgFlightNs += alpha * (float64(elapsed) - m.avgFlightNs)
			}
		}
		if res.Analysis != nil {
			m.counters.accumulateAnalysisLocked(res.Analysis.Totals)
		}
		ws := m.counters.worker(worker)
		ws.flights++
		if cached {
			ws.cacheHits++
		}
		ws.accumulate(res.Analysis)
		done := time.Now()
		for _, j := range f.jobs {
			if j.state.Terminal() {
				continue
			}
			j.state = StateDone
			j.cached = j.cached || cached
			j.finishedAt = done
			j.elapsed = elapsed
			j.result = &res
			m.counters.completed++
			if j.tenant != "" {
				m.tenantCountersLocked(j.tenant).completed++
			}
			m.notifyLocked(j)
			recs = append(recs, journalEntry{
				ID: j.id, Key: j.key, Label: j.label, Tenant: j.tenant,
				State: StateDone, Worker: worker, FinishedAt: done,
			})
		}
	}
	m.pruneLocked()
	m.mu.Unlock()
	// Broker seal and journal write happen outside m.mu: finish closes
	// subscriber channels (its own lock) and record does file I/O.
	if f.stream != nil {
		f.stream.finish(res.Analysis, err)
	}
	m.journal.record(recs...)
}

// dropFlightLocked removes f from the dedup index so later identical
// submissions hit the cache (or start fresh) instead of attaching to a
// finished flight.
func (m *Manager) dropFlightLocked(f *flight) {
	if f.key != "" && m.flights[f.key] == f {
		delete(m.flights, f.key)
	}
	f.cancel()
}

// pruneLocked evicts the oldest terminal jobs beyond the retention
// cap, keeping the long-running daemon's memory bounded. Live jobs
// are always kept; evicted results stay reachable via the cache. An
// eviction wakes long-poll waiters too, since a job that is gone has
// settled — a backstop, as each evicted job already woke them when it
// turned terminal.
func (m *Manager) pruneLocked() {
	terminal := 0
	for _, id := range m.order {
		if m.jobs[id].state.Terminal() {
			terminal++
		}
	}
	if terminal <= m.retention {
		return
	}
	keep := m.order[:0]
	for _, id := range m.order {
		if j := m.jobs[id]; terminal > m.retention && j.state.Terminal() {
			delete(m.jobs, id)
			terminal--
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
	m.wakeLocked()
}

// Drain gracefully shuts the manager down: new submissions fail with
// ErrDraining, still-queued jobs are canceled, and running simulations
// are awaited until ctx expires. It is idempotent; concurrent calls
// all block until the drain completes.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		// Walk jobs, not the dedup index: key-less (uncacheable)
		// flights never enter m.flights but must be canceled too.
		for _, j := range m.jobs {
			if !j.state.Terminal() && j.flight != nil && j.flight.state == StateQueued {
				m.cancelJobLocked(j, "server shutting down")
			}
		}
		// SubmitAs holds mu and checks draining, so no racing push;
		// workers exit nextFlight once nothing startable remains.
		m.qclosed = true
		m.qcond.Broadcast()
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		m.cancel()
		return nil
	case <-ctx.Done():
		m.cancel()
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// statusLocked renders a job for the wire.
func (m *Manager) statusLocked(j *job, withResult bool) JobStatus {
	st := JobStatus{
		ID:          j.id,
		Label:       j.label,
		Tenant:      j.tenant,
		Key:         j.key,
		State:       j.state,
		Cached:      j.cached,
		Deduped:     j.deduped,
		SubmittedAt: j.submittedAt,
		ElapsedMs:   float64(j.elapsed) / float64(time.Millisecond),
	}
	if j.err != nil {
		st.Error = j.err.Error()
		st.Reason = j.reason
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
	}
	if withResult && j.state == StateDone {
		st.Result = j.result
	}
	return st
}
