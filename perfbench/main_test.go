package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// tinyBudget keeps a pass of every workload around a second.
var tinyBudget = budget{
	warmup: 20_000, run: 10_000,
	mixWarmup: 5_000, mixRun: 5_000,
	mixes:   2,
	singles: 2,
}

// contract is the part of BENCHMARK.json the program must honour.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEveryWorkloadEmitsEveryMetric runs a tiny-budget pass of each
// workload, untraced and traced, and checks the report carries exactly
// the named metrics, each finite and in its declared unit, with every
// config passing the correctness gate. BENCHMARK.json names a subset of
// the workloads; the ones it leaves out must report the same metrics.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, cw := range c.Workloads {
		if _, err := lookup(cw.Name); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			o := options{w: w, seed: 3, seconds: time.Millisecond, trace: trace, workdir: t.TempDir(), budget: tinyBudget}
			rep, _, err := measure(context.Background(), o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: no %s", w.name, trace, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestGateTripsOnPerturbedResult checks each way a result can be wrong
// counts as a failed config.
func TestGateTripsOnPerturbedResult(t *testing.T) {
	w, _ := lookup("fig7a-local")
	jobs := w.jobs(3, budget{warmup: 5_000, run: 5_000, singles: 1})[:1]
	p := runSweep(context.Background(), jobs, 1)
	g := gate{jobs: jobs}
	if n, first := g.check(p.results, p.errs); n != 0 {
		t.Fatalf("clean result failed the gate: %s", first)
	}
	g.setReference(p.results)

	perturb := map[string]func(*sim.Result){
		"cycles":    func(r *sim.Result) { r.CPUCycles++ },
		"stat":      func(r *sim.Result) { r.Controller.RowHits++ },
		"budget":    func(r *sim.Result) { r.PerCore[0].Instructions-- },
		"saturated": func(r *sim.Result) { r.Saturated = true },
	}
	for name, f := range perturb {
		bad := p.results[0]
		bad.PerCore = append([]sim.CoreResult(nil), bad.PerCore...)
		f(&bad)
		if n, _ := g.check([]sim.Result{bad}, nil); n != 1 {
			t.Errorf("%s: perturbed result passed the gate", name)
		}
	}
	if n, _ := g.check(p.results, []error{context.Canceled}); n != 1 {
		t.Error("a config error passed the gate")
	}
	if n, _ := g.check(nil, nil); n != 1 {
		t.Error("a missing result passed the gate")
	}
}

// TestTracedResultsMatchUntraced checks the traced pass (phase profile
// on, mechanism rebuilt and wrapped) reproduces the untraced results
// byte for byte once stripped, and that its timers saw the hooks.
func TestTracedResultsMatchUntraced(t *testing.T) {
	w, _ := lookup("fig7b-local")
	jobs := w.jobs(3, budget{mixWarmup: 5_000, mixRun: 5_000, mixes: 1})
	ref := runSweep(context.Background(), jobs, 2)
	g := gate{jobs: jobs}
	g.setReference(ref.results)
	p, traces := runTraced(context.Background(), jobs, 2)
	for i := range p.results {
		p.results[i] = stripped(jobs[i], p.results[i])
	}
	if n, first := g.check(p.results, p.errs); n != 0 {
		t.Fatalf("%d traced results differ, first %s", n, first)
	}
	for i, tr := range traces {
		if tr.mech.tick.calls == 0 || tr.mech.measuredFrom.IsZero() || tr.res.Analysis == nil {
			t.Errorf("%s: traced run recorded no mechanism ticks, warm-up boundary or phase profile", jobs[i].Label)
		}
	}
}

// TestSpanRoutes checks the span transport labels the submit, status
// and result requests of a client run and reads job states out of
// their replies.
func TestSpanRoutes(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{http.MethodPost, "/v1/jobs", routeSubmit},
		{http.MethodGet, "/v1/jobs", routeStatus},
		{http.MethodGet, "/v1/jobs/17", routeStatus},
		{http.MethodGet, "/v1/jobs/17/events", routeOther},
		{http.MethodDelete, "/v1/jobs/17", routeOther},
		{http.MethodGet, "/v1/results/abc", routeResult},
		{http.MethodGet, "/healthz", routeOther},
	} {
		if got := route(c.method, c.path); got != c.want {
			t.Errorf("route(%s %s) = %s, want %s", c.method, c.path, got, c.want)
		}
	}

	ctx := context.Background()
	d, err := startDaemon(ctx, t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	w, _ := lookup("fig7a-local")
	jobs := w.jobs(3, budget{warmup: 5_000, run: 5_000, singles: 1})[:1]
	st := &spanTransport{base: http.DefaultTransport}
	cli := client.New(d.url)
	cli.PollInterval = 10 * time.Millisecond
	cli.SetTransport(st)
	if _, err := cli.RunSweep(ctx, jobs, nil); err != nil {
		t.Fatal(err)
	}
	key, err := sweep.Key(jobs[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Result(ctx, key); err != nil {
		t.Fatal(err)
	}

	count := map[string]int{}
	terminal := false
	for _, sp := range st.take() {
		count[sp.Route]++
		if sp.Bytes == 0 || sp.End.Before(sp.Start) || sp.Err {
			t.Errorf("%s span: %d bytes, %v long, err %v", sp.Route, sp.Bytes, sp.End.Sub(sp.Start), sp.Err)
		}
		if sp.Route == routeSubmit && len(sp.Jobs) != 1 {
			t.Errorf("submit span names %d jobs, want 1", len(sp.Jobs))
		}
		for _, j := range sp.Jobs {
			terminal = terminal || (sp.Route == routeStatus && j.Terminal)
		}
	}
	if count[routeSubmit] != 1 || count[routeStatus] < 2 || count[routeResult] != 1 || count[routeOther] != 0 {
		t.Errorf("route counts %v, want 1 submit, >= 2 status, 1 result", count)
	}
	if !terminal {
		t.Error("no status span saw the job terminal")
	}
}

func TestSizesFollowNproc(t *testing.T) {
	for n, want := range map[int][]int{1: {1, 1}, 2: {1, 1}, 3: {1, 2}, 8: {4, 4}} {
		s := sizesFor(n)
		if s.SweepWorkers != n || s.WarmClients != 1 || len(s.FleetSlots) != 2 ||
			s.FleetSlots[0] != want[0] || s.FleetSlots[1] != want[1] {
			t.Errorf("sizesFor(%d) = %+v, want fleet slots %v", n, s, want)
		}
	}
}

// TestRunnerGatesEveryPass checks the runner compares every pass with
// its reference: a corrupted reference entry must fail exactly one
// config on the local and the service paths.
func TestRunnerGatesEveryPass(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"fig7a-local", "rerun-warm"} {
		w, _ := lookup(name)
		r := &runner{
			o:   options{w: w, seed: 3, seconds: time.Millisecond, workdir: t.TempDir(), budget: tinyBudget},
			sz:  sizesFor(2),
			log: io.Discard,
		}
		if err := r.setup(ctx); err != nil {
			t.Fatal(err)
		}
		r.onePass(ctx)
		if r.failed != 0 || r.attempted != len(r.jobs) {
			t.Fatalf("%s: clean pass: attempted %d failed %d", name, r.attempted, r.failed)
		}
		r.gate.ref[0] = append([]byte(nil), r.gate.ref[0]...)
		r.gate.ref[0][len(r.gate.ref[0])/2] ^= 1
		r.onePass(ctx)
		if r.failed != 1 {
			t.Errorf("%s: corrupted reference: %d configs failed, want 1", name, r.failed)
		}
	}
}
