// Command perfbench is ccsim's benchmark. It runs the paper's Figure 7
// campaigns as one of four workloads, checks every result, and prints
// one JSON line of metrics:
//
//	fig7a-local  Figure 7a configs through sweep.Run, nproc workers
//	fig7b-local  Figure 7b configs (40 eight-core mixes) through sweep.Run
//	fig7a-fleet  Figure 7a configs through dispatch.Run to two cold
//	             loopback daemons whose slots add up to nproc
//	rerun-warm   Figure 7a configs, one client.RunSweep call each, against
//	             one daemon whose result cache was pre-filled
//
// With -trace 0 it reports the end-to-end metrics (setup_s, campaign_s,
// config_p50_ms, config_p90_ms, peak_rss_mb); with -trace 1 it alternates
// untraced and traced passes and reports the per-layer metrics. See
// README.md for the metric table and perfbench/run.sh for how to build
// and run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/dispatch"
	"repro/internal/sim"
	"repro/internal/sweep"
)

const (
	// defaultSeed is the seed claims are measured on; heldOutSeed is
	// kept for re-checking a claim on inputs the change was not tuned on.
	defaultSeed = 1
	heldOutSeed = 2016

	// A run sets its workload up at least minSetups times and for at
	// least minSetupTime, at most maxSetups times; setup_s is the median.
	// The time floor gives a fleet, ready in about a millisecond, enough
	// samples for a steady median.
	minSetups    = 9
	maxSetups    = 100
	minSetupTime = 500 * time.Millisecond

	// runLimit bounds one run, whatever -seconds says.
	runLimit = 160 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of the output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one run's settings.
type options struct {
	w       spec
	seed    uint64
	seconds time.Duration
	trace   bool
	workdir string
	budget  budget
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fig7a-local, fig7b-local, fig7a-fleet or rerun-warm")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced passes")
	workdir := fs.String("workdir", os.TempDir(), "directory for the daemons' scratch result caches")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o := options{
		w:       w,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workdir: *workdir,
		budget:  fullBudget,
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	rep, info, err := measure(ctx, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"perfbench": info}); err != nil {
		return 1
	}
	if err := enc.Encode(rep); err != nil {
		return 1
	}
	return 0
}

// sizes is the load a run applies, derived from nproc.
type sizes struct {
	Nproc        int   `json:"nproc"`
	SweepWorkers int   `json:"sweep_workers"`
	FleetSlots   []int `json:"fleet_slots"`
	WarmClients  int   `json:"warm_clients"`
	Configs      int   `json:"configs"`
}

func sizesFor(nproc int) sizes {
	a := nproc / 2
	if a < 1 {
		a = 1
	}
	b := nproc - a
	if b < 1 {
		b = 1
	}
	return sizes{Nproc: nproc, SweepWorkers: nproc, FleetSlots: []int{a, b}, WarmClients: 1}
}

// runInfo is printed before the report: what ran, where, and on how
// many samples the metrics rest.
type runInfo struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Trace    bool           `json:"trace"`
	Host     host           `json:"host"`
	Sizes    sizes          `json:"sizes"`
	Samples  map[string]int `json:"samples"`
	// Medians are the untraced run's median pass and its percentiles
	// over every config latency, beside the fastest-pass metrics.
	Medians map[string]float64 `json:"medians,omitempty"`
}

// measure runs one workload and returns its report. An error means the
// benchmark itself could not run; failed configs are counted instead.
func measure(ctx context.Context, o options, log io.Writer) (report, runInfo, error) {
	sz := sizesFor(runtime.NumCPU())
	info := runInfo{Workload: o.w.name, Seed: o.seed, Trace: o.trace, Host: fingerprint(), Samples: map[string]int{}}
	r := &runner{o: o, sz: sz, log: log}
	if err := r.setup(ctx); err != nil {
		return report{}, info, err
	}
	sz.Configs = len(r.jobs)
	info.Sizes = sz

	metrics := map[string]metric{}
	var err error
	if o.trace {
		err = r.traced(ctx, metrics, info.Samples)
	} else {
		r.timed(ctx, metrics, &info)
	}
	if err != nil {
		return report{}, info, err
	}
	return report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, info, nil
}

// runner holds one run's state.
type runner struct {
	o   options
	sz  sizes
	log io.Writer

	jobs   []sweep.Job
	gate   gate
	setups []time.Duration
	newMs  []float64 // sim.New per config in the last local setup

	prefill map[string]sim.Result // warm: the reference results by cache key

	attempted, failed int
}

// setup builds the config set and makes the workload ready repeatedly,
// timing each. Fleet and warm workloads first compute the local
// reference their results must match, outside every timed region.
func (r *runner) setup(ctx context.Context) error {
	o := r.o
	r.jobs = o.w.jobs(o.seed, o.budget)
	r.gate.jobs = r.jobs
	if o.w.path != local {
		ref := runSweep(ctx, r.jobs, r.sz.SweepWorkers)
		if n, first := r.gate.check(ref.results, ref.errs); n > 0 {
			return fmt.Errorf("local reference run: %d configs failed, first %s", n, first)
		}
		r.gate.setReference(ref.results)
		if o.w.path == warm {
			var err error
			if r.prefill, err = prefillFrom(r.jobs, ref.results); err != nil {
				return err
			}
		}
	}
	began := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(began) < minSetupTime); i++ {
		ds, err := r.prepare(ctx)
		if err != nil {
			return err
		}
		if err := stopAll(ds); err != nil {
			return err
		}
	}
	return nil
}

// prepare makes the workload ready for one pass and records the time it
// took as a set-up sample: every config's System built once (local),
// two cold daemons (fleet), or one daemon with a pre-filled result
// cache (warm). Every pass is prepared afresh, so each meets the same
// state and the set-up samples spread over the whole run.
func (r *runner) prepare(ctx context.Context) ([]*daemon, error) {
	start := time.Now()
	var ds []*daemon
	var err error
	switch r.o.w.path {
	case local:
		var news []time.Duration
		if news, err = buildAll(r.jobs); err == nil {
			r.newMs = r.newMs[:0]
			for _, d := range news {
				r.newMs = append(r.newMs, ms(d))
			}
		}
	case fleet:
		ds, err = startFleet(ctx, r.o.workdir, r.sz.FleetSlots)
	case warm:
		var d *daemon
		if d, err = startDaemon(ctx, r.o.workdir, r.sz.Nproc, r.prefill); err == nil {
			ds = []*daemon{d}
		}
	}
	if err == nil {
		r.setups = append(r.setups, time.Since(start))
	}
	return ds, err
}

// servicePass runs one fleet or warm pass against ds.
func (r *runner) servicePass(ctx context.Context, ds []*daemon, stats *dispatch.Stats) pass {
	if r.o.w.path == fleet {
		return runFleet(ctx, r.jobs, ds, stats)
	}
	return runWarm(ctx, r.jobs, client.New(ds[0].url))
}

// onePass prepares the workload, runs its timed pass once, and gates
// the results. It reads the heap allocation and the resident high-water
// mark around the pass alone.
func (r *runner) onePass(ctx context.Context) pass {
	ds, err := r.prepare(ctx)
	if err != nil {
		p := failedPass(len(r.jobs), err)
		r.admit(p)
		return p
	}
	resetPeakRSS()
	alloc := allocBytes()
	var p pass
	if r.o.w.path == local {
		p = runSweep(ctx, r.jobs, r.sz.SweepWorkers)
	} else {
		p = r.servicePass(ctx, ds, nil)
	}
	p.alloc = allocBytes() - alloc
	p.peakRSSMB = peakRSSMB()
	if err := stopAll(ds); err != nil {
		fmt.Fprintln(r.log, "perfbench: stopping the daemons:", err)
	}
	r.admit(p)
	return p
}

func failedPass(n int, err error) pass {
	p := pass{latency: make([]time.Duration, n), errs: make([]error, n)}
	for i := range p.errs {
		p.errs[i] = err
	}
	return p
}

// admit gates a pass's results and counts them. A local workload's
// first clean pass becomes the reference later passes must reproduce.
func (r *runner) admit(p pass) {
	n, first := r.gate.check(p.results, p.errs)
	if n > 0 {
		fmt.Fprintf(r.log, "perfbench: %d of %d configs failed, first %s\n", n, len(r.jobs), first)
	}
	r.attempted += len(r.jobs)
	r.failed += n
	if r.gate.ref == nil && n == 0 {
		r.gate.setReference(p.results)
	}
}

// more reports whether another pass of length last fits in the
// measuring time left after elapsed.
func (r *runner) more(elapsed, last time.Duration) bool {
	return elapsed+last <= r.o.seconds
}

// timed is the end-to-end run: passes back to back for -seconds (at
// least one). Interference from the rest of a shared host only ever
// adds time, and on a small guest it comes and goes within seconds
// while some passes still run undisturbed. So each timing is the
// fastest seen: campaign_s is the fastest clean pass, and the config
// percentiles are taken over each config's fastest latency. The medians
// go into the run info.
func (r *runner) timed(ctx context.Context, out map[string]metric, info *runInfo) {
	var walls, lat, rss []float64
	best := make([]float64, len(r.jobs)) // per config, fastest latency in ms; 0 until one succeeds
	start := time.Now()
	for {
		failed := r.failed
		p := r.onePass(ctx)
		if r.failed == failed {
			walls = append(walls, p.wall.Seconds())
		}
		rss = append(rss, p.peakRSSMB)
		for i, d := range p.latency {
			if p.errs[i] != nil {
				continue
			}
			v := ms(d)
			lat = append(lat, v)
			if best[i] == 0 || v < best[i] {
				best[i] = v
			}
		}
		if ctx.Err() != nil || !r.more(time.Since(start), p.wall) {
			break
		}
	}
	var fastest []float64
	for _, v := range best {
		if v > 0 {
			fastest = append(fastest, v)
		}
	}
	out["setup_s"] = metric{median(durSeconds(r.setups)), "s"}
	out["campaign_s"] = metric{percentile(walls, 0), "s"}
	out["config_p50_ms"] = metric{percentile(fastest, 0.5), "ms"}
	out["config_p90_ms"] = metric{percentile(fastest, 0.9), "ms"}
	out["peak_rss_mb"] = metric{median(rss), "MB"}
	info.Medians = map[string]float64{
		"campaign_s":    median(walls),
		"config_p50_ms": percentile(lat, 0.5),
		"config_p90_ms": percentile(lat, 0.9),
	}
	info.Samples["passes"] = len(rss)
	info.Samples["clean_passes"] = len(walls)
	info.Samples["configs"] = len(fastest)
	info.Samples["config_latency"] = len(lat)
	info.Samples["setup"] = len(r.setups)
}

// traced is the per-layer run: untraced and traced passes alternate for
// -seconds (at least one pair). The untraced passes give the overhead
// baseline, sweep busy time and allocation; the traced ones give the
// layer numbers.
func (r *runner) traced(ctx context.Context, out map[string]metric, samples map[string]int) error {
	sl := simLayers{newMs: r.newMs}
	var svc serviceLayers
	var untraced, traced []float64
	start := time.Now()
	for {
		u := r.onePass(ctx)
		untraced = append(untraced, u.wall.Seconds())

		var t pass
		var err error
		switch r.o.w.path {
		case local:
			sl.addUntraced(r.jobs, u, r.sz.SweepWorkers)
			var traces []simTrace
			t, traces = runTraced(ctx, r.jobs, r.sz.SweepWorkers)
			for i := range t.results {
				t.results[i] = stripped(r.jobs[i], t.results[i])
			}
			r.admit(t)
			sl.addTraced(r.jobs, traces)
		default:
			t, err = r.tracedService(ctx, &svc)
		}
		if err != nil {
			return err
		}
		traced = append(traced, t.wall.Seconds())
		if ctx.Err() != nil || !r.more(time.Since(start), u.wall+t.wall) {
			break
		}
	}
	sl.metrics(out)
	svc.metrics(out)
	out["trace_overhead_frac"] = metric{median(traced)/median(untraced) - 1, "frac"}
	samples["pairs"] = len(traced)
	return nil
}

// tracedService runs one traced fleet or warm pass with the span
// transport installed as http.DefaultTransport.
func (r *runner) tracedService(ctx context.Context, svc *serviceLayers) (pass, error) {
	ds, err := r.prepare(ctx)
	if err != nil {
		return pass{}, err
	}
	defer func() {
		if err := stopAll(ds); err != nil {
			fmt.Fprintln(r.log, "perfbench: stopping the daemons:", err)
		}
	}()
	clientSlots := r.sz.WarmClients
	if r.o.w.path == fleet {
		clientSlots = r.sz.FleetSlots[0] + r.sz.FleetSlots[1]
	}
	before, err := metricsOf(ctx, ds)
	if err != nil {
		return pass{}, err
	}
	base := http.DefaultTransport
	st := &spanTransport{base: base}
	http.DefaultTransport = st
	var stats dispatch.Stats
	p := r.servicePass(ctx, ds, &stats)
	http.DefaultTransport = base
	r.admit(p)
	return p, svc.addPass(ctx, p, st.take(), ds, before, clientSlots, stats)
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// resident high-water mark, so the next reading covers one pass and not
// the garbage set-up left behind.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Writing 5 resets VmHWM (Linux 4.0 and later). Where it fails,
	// the mark covers the whole process instead.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident high-water mark (VmHWM) in MiB.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64) // malformed reads as 0, which the tests reject
			return kb / 1024
		}
	}
	return 0
}
