package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/dispatch"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// daemon is one in-process ccsimd on a loopback port: the manager and
// HTTP handler `ccsimd` wires up, with a result cache in its own
// directory.
type daemon struct {
	mgr    *server.Manager
	srv    *http.Server
	url    string
	dir    string
	served chan error
}

// startDaemon starts a daemon with workers slots whose result cache
// lives in a fresh directory under workdir, pre-filled with prefill
// (key -> result) when given, and waits until /healthz answers.
func startDaemon(ctx context.Context, workdir string, workers int, prefill map[string]sim.Result) (*daemon, error) {
	dir, err := os.MkdirTemp(workdir, "ccsimd-")
	if err != nil {
		return nil, err
	}
	cache, err := sweep.OpenCache(filepath.Join(dir, "results.json"))
	if err == nil {
		for key, res := range prefill {
			if err = cache.PutKeyed(key, res); err != nil {
				break
			}
		}
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	mgr := server.NewManager(server.ManagerConfig{Workers: workers, Cache: cache})
	d := &daemon{
		mgr:    mgr,
		srv:    &http.Server{Handler: server.New(mgr)},
		url:    "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	h, err := client.New(d.url).Health(ctx)
	if err == nil && h.Workers != workers {
		err = fmt.Errorf("daemon %s advertises %d workers, want %d", d.url, h.Workers, workers)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the HTTP server and the manager down, waits for both, and
// removes the daemon's directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, d.mgr.Drain(ctx), os.RemoveAll(d.dir))
	return err
}

// startFleet starts one cold daemon per entry of slots.
func startFleet(ctx context.Context, workdir string, slots []int) ([]*daemon, error) {
	var ds []*daemon
	for _, n := range slots {
		d, err := startDaemon(ctx, workdir, n, nil)
		if err != nil {
			stopAll(ds)
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

func stopAll(ds []*daemon) error {
	var err error
	for _, d := range ds {
		err = errors.Join(err, d.stop())
	}
	// Drop the keep-alive connections to the stopped daemons.
	if t, ok := http.DefaultTransport.(interface{ CloseIdleConnections() }); ok {
		t.CloseIdleConnections()
	}
	return err
}

// runFleet is the fleet timed pass: the config set through dispatch.Run
// to the daemons, per-config latency from the dispatcher's attempt time
// (sweep.Event.Elapsed).
func runFleet(ctx context.Context, jobs []sweep.Job, ds []*daemon, stats *dispatch.Stats) pass {
	var urls []string
	for _, d := range ds {
		urls = append(urls, d.url)
	}
	p := pass{latency: make([]time.Duration, len(jobs)), errs: make([]error, len(jobs))}
	reported := make([]bool, len(jobs))
	start := time.Now()
	results, err := dispatch.Run(ctx, jobs, dispatch.Options{
		Endpoints: urls,
		Stats:     stats,
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

// runWarm is the warm re-run pass: one client asks for the configs one
// at a time, one client.RunSweep call each, timed around the call.
func runWarm(ctx context.Context, jobs []sweep.Job, c *client.Client) pass {
	p := pass{
		latency: make([]time.Duration, len(jobs)),
		results: make([]sim.Result, len(jobs)),
		errs:    make([]error, len(jobs)),
	}
	start := time.Now()
	for i, j := range jobs {
		t0 := time.Now()
		res, err := c.RunSweep(ctx, []sweep.Job{j}, nil)
		p.latency[i] = time.Since(t0)
		if err == nil && len(res) != 1 {
			err = fmt.Errorf("%d results for one job", len(res))
		}
		if err != nil {
			p.errs[i] = err
			continue
		}
		p.results[i] = res[0]
	}
	p.wall = time.Since(start)
	return p
}

// prefillFrom keys reference results by their configs' cache keys.
func prefillFrom(jobs []sweep.Job, results []sim.Result) (map[string]sim.Result, error) {
	out := make(map[string]sim.Result, len(jobs))
	for i, j := range jobs {
		key, err := sweep.Key(j.Config)
		if err != nil {
			return nil, err
		}
		out[key] = results[i]
	}
	return out, nil
}

// serviceLayers accumulates the per-layer numbers of traced service
// passes: client spans, the daemons' job timestamps and counters, and
// the dispatcher's statistics.
type serviceLayers struct {
	jobs                   float64
	submitMs               []float64
	statusReqs, useful     float64
	finishToFetchMs        []float64
	respBytes              float64
	queueWaitMs, runMs     []float64
	runNs, slotNs          float64 // Σ server run time, Σ campaign × daemon slots
	inflightNs, clientSlot float64 // Σ job in-flight time, Σ campaign × client slots
	submitted, cacheHits   float64
	retries                float64
}

// addPass folds one traced pass in. before holds each daemon's /metrics
// from just before the pass; clientSlots is the number of jobs the
// client side may keep in flight.
func (l *serviceLayers) addPass(ctx context.Context, p pass, spans []span, ds []*daemon, before []server.Metrics, clientSlots int, stats dispatch.Stats) error {
	l.jobs += float64(len(p.latency))
	l.retries += float64(stats.Retries)

	type jobID struct{ host, id string }
	submitted := map[jobID]time.Time{}
	seen := map[jobID]time.Time{}
	for _, sp := range spans {
		l.respBytes += float64(sp.Bytes)
		switch sp.Route {
		case routeSubmit:
			l.submitMs = append(l.submitMs, ms(sp.End.Sub(sp.Start)))
		case routeStatus:
			l.statusReqs++
		}
		terminal := false
		for _, j := range sp.Jobs {
			k := jobID{sp.Host, j.ID}
			if sp.Route == routeSubmit {
				submitted[k] = sp.Start
			}
			if j.Terminal {
				terminal = true
				if _, ok := seen[k]; !ok {
					seen[k] = sp.End
				}
			}
		}
		if sp.Route == routeStatus && terminal {
			l.useful++
		}
	}
	for k, at := range seen {
		if from, ok := submitted[k]; ok {
			l.inflightNs += float64(at.Sub(from))
		}
	}
	l.clientSlot += float64(p.wall) * float64(clientSlots)

	for i, d := range ds {
		host := d.url[len("http://"):]
		for _, st := range d.mgr.Jobs() {
			k := jobID{host, st.ID}
			if _, ok := submitted[k]; !ok || st.FinishedAt == nil {
				continue // not this pass's job
			}
			if at, ok := seen[k]; ok {
				l.finishToFetchMs = append(l.finishToFetchMs, ms(at.Sub(*st.FinishedAt)))
			}
			if st.StartedAt != nil {
				l.queueWaitMs = append(l.queueWaitMs, ms(st.StartedAt.Sub(st.SubmittedAt)))
				run := st.FinishedAt.Sub(*st.StartedAt)
				l.runMs = append(l.runMs, ms(run))
				l.runNs += float64(run)
			}
		}
		l.slotNs += float64(p.wall) * float64(d.mgr.Workers())
		m, err := client.New(d.url).Metrics(ctx)
		if err != nil {
			return err
		}
		l.submitted += float64(m.JobsSubmitted - before[i].JobsSubmitted)
		l.cacheHits += float64(m.CacheHits - before[i].CacheHits)
	}
	return nil
}

// metricsOf fetches every daemon's /metrics.
func metricsOf(ctx context.Context, ds []*daemon) ([]server.Metrics, error) {
	out := make([]server.Metrics, len(ds))
	for i, d := range ds {
		m, err := client.New(d.url).Metrics(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func (l *serviceLayers) metrics(out map[string]metric) {
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	set("client.submit_ms", median(l.submitMs), "ms")
	set("client.status_gets_per_job", ratio(l.statusReqs, l.jobs), "requests/job")
	set("client.status_useful_frac", ratio(l.useful, l.statusReqs), "frac")
	set("client.finish_to_fetch_p50_ms", percentile(l.finishToFetchMs, 0.5), "ms")
	set("client.finish_to_fetch_p90_ms", percentile(l.finishToFetchMs, 0.9), "ms")
	set("client.response_bytes_per_job", ratio(l.respBytes, l.jobs), "B/job")
	set("server.queue_wait_p50_ms", percentile(l.queueWaitMs, 0.5), "ms")
	set("server.queue_wait_p90_ms", percentile(l.queueWaitMs, 0.9), "ms")
	set("server.run_ms", median(l.runMs), "ms")
	set("server.worker_busy_frac", ratio(l.runNs, l.slotNs), "frac")
	set("server.cache_hit_frac", ratio(l.cacheHits, l.submitted), "frac")
	set("dispatch.inflight_avg", ratio(l.inflightNs, l.clientSlot), "jobs/slot")
	set("dispatch.retries", l.retries, "count")
}
