package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// checkBudget reports whether res is a complete run of cfg: not
// saturated, one core result per workload, and every core at exactly
// its instruction budget.
func checkBudget(cfg sim.Config, res sim.Result) error {
	if res.Saturated {
		return fmt.Errorf("saturated at %d cycles", res.CPUCycles)
	}
	if len(res.PerCore) != len(cfg.Workloads) {
		return fmt.Errorf("%d core results for %d workloads", len(res.PerCore), len(cfg.Workloads))
	}
	for i, c := range res.PerCore {
		if c.Instructions != cfg.RunInstructions {
			return fmt.Errorf("core %d retired %d of %d instructions", i, c.Instructions, cfg.RunInstructions)
		}
	}
	return nil
}

// encode is the byte form results are compared in.
func encode(res sim.Result) []byte {
	blob, err := json.Marshal(res)
	if err != nil {
		// A Result that cannot be encoded cannot equal anything.
		return []byte(err.Error())
	}
	return blob
}

// gate counts the failed configs of one pass: a config fails when it
// errored, missed its budget, or does not encode byte-identically to
// its reference. ref may be nil (no reference yet); errs[i] non-nil
// marks config i as failed outright.
type gate struct {
	jobs []sweep.Job
	ref  [][]byte
}

// check returns how many of the pass's configs failed, with the first
// failure's description for the log.
func (g *gate) check(results []sim.Result, errs []error) (failed int, first string) {
	note := func(i int, format string, args ...any) {
		failed++
		if first == "" {
			first = g.jobs[i].Label + ": " + fmt.Sprintf(format, args...)
		}
	}
	for i, job := range g.jobs {
		if errs != nil && errs[i] != nil {
			note(i, "%v", errs[i])
			continue
		}
		if i >= len(results) {
			note(i, "no result")
			continue
		}
		if err := checkBudget(job.Config, results[i]); err != nil {
			note(i, "%v", err)
			continue
		}
		if g.ref != nil && !bytes.Equal(encode(results[i]), g.ref[i]) {
			note(i, "result differs from the reference")
		}
	}
	return failed, first
}

// setReference records results as the byte-exact reference.
func (g *gate) setReference(results []sim.Result) {
	g.ref = make([][]byte, len(results))
	for i, r := range results {
		g.ref[i] = encode(r)
	}
}

// stripped returns the untraced form of a traced-pass result: its
// analysis report removed and its config restored to the job's, so it
// can be compared byte for byte with an untraced run of the job.
func stripped(job sweep.Job, res sim.Result) sim.Result {
	res.Analysis = nil
	res.Config = job.Config
	return res
}
