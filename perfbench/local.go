package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// pass is one campaign over a workload's config set.
type pass struct {
	wall      time.Duration   // first config handed over to last result in hand
	latency   []time.Duration // per config, hand-off to result
	results   []sim.Result
	errs      []error // per config; nil entries succeeded
	alloc     uint64  // heap bytes allocated during the pass
	peakRSSMB float64 // resident high-water mark during the pass
}

// runSweep is the local timed pass: the config set through sweep.Run
// with workers workers, per-config latency from sweep.Event.Elapsed.
func runSweep(ctx context.Context, jobs []sweep.Job, workers int) pass {
	p := pass{latency: make([]time.Duration, len(jobs)), errs: make([]error, len(jobs))}
	reported := make([]bool, len(jobs))
	start := time.Now()
	results, err := sweep.Run(ctx, jobs, sweep.Options{
		Workers: workers,
		Progress: func(ev sweep.Event) {
			p.latency[ev.Index] = ev.Elapsed
			p.errs[ev.Index] = ev.Err
			reported[ev.Index] = true
		},
	})
	p.wall = time.Since(start)
	p.results = results
	markUnfinished(p.errs, reported, err)
	return p
}

// markUnfinished fails every config a failed campaign never reported:
// first-error cancellation abandons them.
func markUnfinished(errs []error, reported []bool, err error) {
	if err == nil {
		return
	}
	for i := range errs {
		if !reported[i] {
			errs[i] = err
		}
	}
}

// buildAll constructs every config's System once and discards it, which
// validates the configs and fills the simulator's circuit-model memo.
// It returns each construction's time.
func buildAll(jobs []sweep.Job) ([]time.Duration, error) {
	news := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		start := time.Now()
		if _, err := sim.New(j.Config); err != nil {
			return nil, err
		}
		news[i] = time.Since(start)
	}
	return news, nil
}

// simTrace is one config's traced run: System.Run timed from outside,
// the phase profile and the wrapped mechanism inside.
type simTrace struct {
	runTime         time.Duration
	measuredTime    time.Duration // System.Run after the warm-up reset
	executed, total int64
	mech            mechTrace
	res             sim.Result
}

// runTraced is the local traced pass: the same configs with the phase
// profiler on (Config.Analysis) and every mechanism rebuilt and timed
// (Config.CustomMechanism), run by workers goroutines that each time
// System.Run.
func runTraced(ctx context.Context, jobs []sweep.Job, workers int) (pass, []simTrace) {
	p := pass{
		latency: make([]time.Duration, len(jobs)),
		results: make([]sim.Result, len(jobs)),
		errs:    make([]error, len(jobs)),
	}
	traces := make([]simTrace, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				p.errs[i] = traceOne(jobs[i].Config, &traces[i])
				p.latency[i] = time.Since(t0)
				p.results[i] = traces[i].res
			}
		}()
	}
	for i := range jobs {
		if ctx.Err() != nil {
			p.errs[i] = ctx.Err()
			continue
		}
		next <- i
	}
	close(next)
	wg.Wait()
	p.wall = time.Since(start)
	return p, traces
}

func traceOne(cfg sim.Config, t *simTrace) error {
	cfg.Analysis = &analysis.Config{Enabled: true, PhaseProfile: true}
	cfg, err := wrapMechanism(cfg, &t.mech)
	if err != nil {
		return err
	}
	sys, err := sim.New(cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := sys.Run()
	end := time.Now()
	if err != nil {
		return err
	}
	t.runTime = end.Sub(start)
	t.measuredTime = t.runTime
	if !t.mech.measuredFrom.IsZero() {
		t.measuredTime = end.Sub(t.mech.measuredFrom)
	}
	t.executed, t.total = sys.ExecutedCycles(), sys.TotalCycles()
	t.res = res
	return nil
}

// allocBytes reports the process's cumulative heap allocation.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// simLayers accumulates the per-layer numbers of local traced passes.
type simLayers struct {
	newMs []float64 // uninstrumented sim.New per config, from setup

	runNs, measuredNs float64
	kinstr            float64
	executed, total   int64

	untracedAlloc, untracedKinstr float64

	phaseNs, phaseSamples [prof.NumPhases]float64
	phaseEst              [prof.NumPhases]float64
	mechEst               float64
	mech                  [3]hookStat // activate, precharge, tick

	reads, selectCalls   float64
	llcMisses, llcAccess float64
	rowHits, rowTotal    float64
	readDepth, qSamples  float64
	ccHits, ccLookups    float64 // ChargeCache configs only: the HCRAC hit rate

	sweepBusy, sweepSpan float64 // Σ Elapsed, Σ campaign × workers
}

// kinstr is a config's simulated instructions, warm-up included, in
// thousands.
func kinstr(cfg sim.Config) float64 {
	return float64((cfg.WarmupInstructions+cfg.RunInstructions)*uint64(len(cfg.Workloads))) / 1000
}

// addTraced folds one traced pass into the accumulators.
func (l *simLayers) addTraced(jobs []sweep.Job, traces []simTrace) {
	for i, t := range traces {
		res := t.res
		l.runNs += float64(t.runTime)
		l.measuredNs += float64(t.measuredTime)
		l.kinstr += kinstr(jobs[i].Config)
		l.executed += t.executed
		l.total += t.total
		if rep := res.Analysis; rep != nil && rep.Phases != nil {
			for p := prof.Phase(0); p < prof.NumPhases; p++ {
				l.phaseNs[p] += float64(rep.Phases.Totals[p].Ns)
				l.phaseSamples[p] += float64(rep.Phases.Totals[p].Samples)
				l.phaseEst[p] += rep.Phases.EstimatedNs(p)
			}
			l.selectCalls += float64(rep.Phases.Calls[prof.Select])
			for _, ch := range rep.Channels {
				for _, e := range ch.Epochs {
					l.readDepth += float64(e.ReadDepthSum)
					l.qSamples += float64(e.QueueSamples)
				}
			}
		}
		for k, h := range []hookStat{t.mech.activate, t.mech.precharge, t.mech.tick} {
			l.mech[k].calls += h.calls
			l.mech[k].samples += h.samples
			l.mech[k].ns += h.ns
			l.mechEst += h.estimatedNs()
		}
		l.reads += float64(res.Controller.ReadsServed)
		l.llcMisses += float64(res.LLC.Misses)
		l.llcAccess += float64(res.LLC.Accesses())
		l.rowHits += float64(res.Controller.RowHits)
		l.rowTotal += float64(res.Controller.RowHits + res.Controller.RowMisses + res.Controller.RowConflicts)
		if jobs[i].Config.Mechanism == sim.ChargeCache {
			l.ccHits += float64(res.Mechanism.Hits)
			l.ccLookups += float64(res.Mechanism.Lookups)
		}
	}
}

// addUntraced folds an untraced pass's sweep-level numbers in: worker
// busy time and heap allocation.
func (l *simLayers) addUntraced(jobs []sweep.Job, p pass, workers int) {
	for i, d := range p.latency {
		l.sweepBusy += float64(d)
		l.untracedKinstr += kinstr(jobs[i].Config)
	}
	l.sweepSpan += float64(p.wall) * float64(workers)
	l.untracedAlloc += float64(p.alloc)
}

// phaseMean is a phase's mean sampled duration in ns.
func (l *simLayers) phaseMean(p prof.Phase) float64 {
	return ratio(l.phaseNs[p], l.phaseSamples[p])
}

// unattributed is the share of the measured window's System.Run time
// no estimate covers. Enqueue runs nested inside the LLC lookup (a miss
// enqueues from LLC.Access) and Callback inside Complete, so both are
// child time already inside their parents and are left out of the
// covered sum. The mechanism hooks run from controller code outside
// every sampled phase, so their estimate is added as its own child.
func (l *simLayers) unattributed() float64 {
	if l.measuredNs == 0 {
		return 0
	}
	covered := l.mechEst
	for _, p := range []prof.Phase{prof.LLCLookup, prof.Select, prof.Issue, prof.Complete} {
		covered += l.phaseEst[p]
	}
	return 1 - ratio(covered, l.measuredNs)
}

func (l *simLayers) metrics(out map[string]metric) {
	mechMean := func(h hookStat) float64 { return ratio(float64(h.ns), float64(h.samples)) }
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	set("sim.new_ms", median(l.newMs), "ms")
	set("sim.run_ns_per_kinstr", ratio(l.runNs, l.kinstr), "ns/kinstr")
	set("sim.executed_cycle_frac", ratio(float64(l.executed), float64(l.total)), "frac")
	set("sim.alloc_bytes_per_kinstr", ratio(l.untracedAlloc, l.untracedKinstr), "B/kinstr")
	set("sim.unattributed_frac", l.unattributed(), "frac")
	set("sim.callback_ns", l.phaseMean(prof.Callback), "ns")
	set("cache.llc_lookup_ns", l.phaseMean(prof.LLCLookup), "ns")
	set("cache.llc_miss_frac", ratio(l.llcMisses, l.llcAccess), "frac")
	set("memctrl.enqueue_ns", l.phaseMean(prof.Enqueue), "ns")
	set("memctrl.select_ns", l.phaseMean(prof.Select), "ns")
	set("memctrl.select_calls_per_read", ratio(l.selectCalls, l.reads), "calls/read")
	set("memctrl.complete_ns", l.phaseMean(prof.Complete), "ns")
	set("memctrl.read_queue_avg", ratio(l.readDepth, l.qSamples), "requests")
	set("memctrl.row_hit_frac", ratio(l.rowHits, l.rowTotal), "frac")
	set("dram.issue_ns", l.phaseMean(prof.Issue), "ns")
	set("core.activate_ns", mechMean(l.mech[0]), "ns")
	set("core.precharge_ns", mechMean(l.mech[1]), "ns")
	set("core.tick_ns", mechMean(l.mech[2]), "ns")
	set("core.tick_calls_per_read", ratio(float64(l.mech[2].calls), l.reads), "calls/read")
	set("core.hit_frac", ratio(l.ccHits, l.ccLookups), "frac")
	set("sweep.worker_busy_frac", ratio(l.sweepBusy, l.sweepSpan), "frac")
}
