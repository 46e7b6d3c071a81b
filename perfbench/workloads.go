package main

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// path says which entry points a workload drives.
type path int

const (
	// local runs the campaign in-process through sweep.Run.
	local path = iota
	// fleet dispatches it to two cold loopback daemons (dispatch.Run).
	fleet
	// warm re-runs it config by config against one pre-filled daemon
	// (client.RunSweep).
	warm
)

// spec is one benchmark workload.
type spec struct {
	name string
	path path
	// eightCore selects the Figure 7b config set instead of Figure 7a.
	eightCore bool
}

var workloads = []spec{
	{name: "fig7a-local", path: local},
	{name: "fig7b-local", path: local, eightCore: true},
	{name: "fig7a-fleet", path: fleet},
	{name: "rerun-warm", path: warm},
}

func lookup(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// budget sizes the config sets. fullBudget is what the benchmark
// measures; the tests shrink it.
type budget struct {
	// Per-core instruction budgets of the single-core (Figure 7a)
	// configs and of the eight-core (Figure 7b) configs.
	warmup, run       uint64
	mixWarmup, mixRun uint64
	mixes             int
	// singles limits the single-core workload list (0 = all 22).
	singles int
}

// fullBudget runs Figure 7a at the experiments package's Quick budgets.
// Figure 7b draws 40 eight-core mixes where the paper draws 20: with 20,
// the simulated work of a pass differs by about 10% (interquartile
// range) from seed to seed, which together with host noise pushed the
// run-to-run spread past the bound; 40 halve it. Their per-core budgets
// (40k warm-up, 20k measured) keep a pass near three seconds on two
// cores and the ChargeCache hit rate above 50%.
var fullBudget = budget{
	warmup: 300_000, run: 150_000,
	mixWarmup: 40_000, mixRun: 20_000,
	mixes: 40,
}

// jobs builds the workload's config set: every single-core workload
// (Figure 7a) or every eight-core mix (Figure 7b, drawn from seed),
// each under the five evaluated mechanisms. seed also seeds every
// config's synthetic traces.
func (w spec) jobs(seed uint64, b budget) []sweep.Job {
	var groups [][]string
	warmup, run := b.warmup, b.run
	if w.eightCore {
		groups = workload.EightCoreMixes(seed, b.mixes)
		warmup, run = b.mixWarmup, b.mixRun
	} else {
		names := workload.Names()
		if b.singles > 0 && b.singles < len(names) {
			names = names[:b.singles]
		}
		for _, n := range names {
			groups = append(groups, []string{n})
		}
	}
	var jobs []sweep.Job
	for i, g := range groups {
		for _, mech := range sim.MechanismKinds() {
			cfg := sim.DefaultConfig(g...)
			cfg.WarmupInstructions = warmup
			cfg.RunInstructions = run
			cfg.Seed = seed
			cfg.Mechanism = mech
			label := g[0]
			if w.eightCore {
				label = fmt.Sprintf("w%d", i+1)
			}
			jobs = append(jobs, sweep.Job{Label: label + "/" + mech.String(), Config: cfg})
		}
	}
	return jobs
}
