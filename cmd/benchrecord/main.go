// Command benchrecord measures the simulation core's two execution
// engines on the Quick-scale Figure 7a campaign (22 single-core
// workloads × 5 mechanisms) and writes the numbers to a JSON file
// (default BENCH_simcore.json), so every PR that touches the hot path
// leaves a comparable data point behind.
//
// Each config is run under both engines back to back (stepper, then
// event), so per-workload speedups compare measurements taken moments
// apart — robust against machine-load drift over the campaign, which
// two separate full passes are not.
//
// Recorded per engine: campaign wall clock, ns per simulated
// megacycle, sweep throughput (configs/sec), and heap bytes allocated
// per config (sim.New + Run); for the event-driven engine additionally
// the fraction of cycles it actually executed.
// The headline "speedup" is stepper wall clock over event wall clock
// for the identical campaign — both engines produce bit-identical
// Results (see internal/sim/differential_test.go), so the comparison
// is pure engine overhead.
//
// The run doubles as a regression gate:
//
//   - -min-speedup R (default 1.0) fails the run if any workload's
//     event-vs-stepper speedup drops below R — an event engine slower
//     than the reference stepper on any workload is a perf bug, not a
//     data point. Set R <= 0 to disable.
//
//   - -compare FILE diffs the fresh numbers against a committed
//     BENCH_simcore.json and fails on a >10% (-max-regress) drop in
//     either engine's aggregate configs_per_sec, or on either engine
//     allocating more than twice the committed bytes per config. The
//     allocation check gives the same verdict on any host; the
//     throughput check depends on the host's speed.
//
//     benchrecord                  # full campaign, writes BENCH_simcore.json
//     benchrecord -quick           # 6-workload subset (CI smoke)
//     benchrecord -out bench.json  # alternate output path
//     benchrecord -compare BENCH_simcore.json -out /tmp/bench.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/version"
	"repro/internal/workload"
)

// engineStats summarizes one engine's pass over the campaign.
type engineStats struct {
	WallMS            float64 `json:"wall_ms"`
	SimMegacycles     float64 `json:"sim_megacycles"`
	NsPerMegacycle    float64 `json:"ns_per_megacycle"`
	ConfigsPerSec     float64 `json:"configs_per_sec"`
	ExecutedFraction  float64 `json:"executed_cycle_fraction,omitempty"`
	ExecutedCycles    int64   `json:"executed_cycles"`
	TotalCycles       int64   `json:"total_cycles"`
	InstructionsTotal uint64  `json:"instructions_total"`
	// AllocBytesPerConfig is the heap allocated by sim.New + Run
	// (runtime.MemStats.TotalAlloc), averaged over the campaign.
	AllocBytesPerConfig float64 `json:"alloc_bytes_per_config"`
}

// maxAllocGrowth is the -compare bound on alloc_bytes_per_config: a
// fresh value above this multiple of the committed one fails.
const maxAllocGrowth = 2.0

// totalAlloc reports the process's cumulative heap allocation.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// workloadRow is the per-workload breakdown (5 configs each).
type workloadRow struct {
	Workload     string  `json:"workload"`
	StepperMS    float64 `json:"stepper_ms"`
	EventMS      float64 `json:"event_ms"`
	Speedup      float64 `json:"speedup"`
	ExecFraction float64 `json:"event_executed_cycle_fraction"`
}

// record is the BENCH_simcore.json schema.
type record struct {
	Generated   string                 `json:"generated"`
	Version     string                 `json:"version"`
	Campaign    string                 `json:"campaign"`
	Scale       string                 `json:"scale"`
	Jobs        int                    `json:"jobs"`
	GoVersion   string                 `json:"go_version"`
	GOOS        string                 `json:"goos"`
	GOARCH      string                 `json:"goarch"`
	GOMAXPROCS  int                    `json:"gomaxprocs"`
	Engines     map[string]engineStats `json:"engines"`
	Speedup     float64                `json:"speedup_event_vs_stepper"`
	PerWorkload []workloadRow          `json:"per_workload"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrecord: ")

	out := flag.String("out", "BENCH_simcore.json", "output JSON path")
	quick := flag.Bool("quick", false, "run a 6-workload subset instead of the full 22 (CI smoke)")
	minSpeedup := flag.Float64("min-speedup", 1.0,
		"fail if any workload's event-vs-stepper speedup is below this (<=0 disables)")
	compare := flag.String("compare", "",
		"committed BENCH_simcore.json to diff against; fail on aggregate throughput regression")
	maxRegress := flag.Float64("max-regress", 0.10,
		"maximum tolerated fractional configs_per_sec regression for -compare")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("benchrecord %s\n", version.String())
		return
	}

	scale := experiments.Quick()
	names := workload.Names()
	if *quick {
		names = names[:6]
	}

	// The Figure 7a per-row config group: baseline plus the four
	// evaluated mechanisms, mirroring experiments.Fig7Single.
	mechs := []sim.MechanismKind{
		sim.Baseline, sim.NUAT, sim.ChargeCache, sim.ChargeCacheNUAT, sim.LLDRAM,
	}
	type job struct {
		workload string
		cfg      sim.Config
	}
	var jobs []job
	for _, name := range names {
		base := sim.DefaultConfig(name)
		base.WarmupInstructions = scale.WarmupInstructions
		base.RunInstructions = scale.RunInstructions
		for _, m := range mechs {
			cfg := base
			cfg.Mechanism = m
			jobs = append(jobs, job{workload: name, cfg: cfg})
		}
	}

	rec := record{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Version:    version.String(),
		Campaign:   "fig7a",
		Scale:      "quick",
		Jobs:       len(jobs),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Engines:    map[string]engineStats{},
	}

	perWorkload := map[string]*workloadRow{}
	for _, name := range names {
		perWorkload[name] = &workloadRow{Workload: name}
	}

	// runOne runs cfg under one engine and returns Run's wall clock and
	// the bytes New and Run allocated.
	runOne := func(cfg sim.Config, stepper bool) (time.Duration, uint64, sim.Result, *sim.System) {
		cfg.Stepper = stepper
		alloc0 := totalAlloc()
		sys, err := sim.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := sys.Run()
		wall := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		return wall, totalAlloc() - alloc0, res, sys
	}
	retired := func(res sim.Result) uint64 {
		var n uint64
		for _, pc := range res.PerCore {
			n += pc.Instructions
		}
		return n
	}

	var stStats, evStats engineStats
	var stTotal, evTotal time.Duration
	var stAlloc, evAlloc uint64
	for _, j := range jobs {
		row := perWorkload[j.workload]

		wall, alloc, res, sys := runOne(j.cfg, true)
		stTotal += wall
		stAlloc += alloc
		stStats.TotalCycles += sys.TotalCycles()
		stStats.ExecutedCycles += sys.ExecutedCycles()
		stStats.InstructionsTotal += retired(res)
		row.StepperMS += float64(wall) / float64(time.Millisecond)

		wall, alloc, res, sys = runOne(j.cfg, false)
		evTotal += wall
		evAlloc += alloc
		evStats.TotalCycles += sys.TotalCycles()
		evStats.ExecutedCycles += sys.ExecutedCycles()
		evStats.InstructionsTotal += retired(res)
		row.EventMS += float64(wall) / float64(time.Millisecond)
		// Running weighted mean over the workload's five configs.
		row.ExecFraction += float64(sys.ExecutedCycles()) / float64(sys.TotalCycles()) / float64(len(mechs))
	}

	finish := func(st *engineStats, total time.Duration, alloc uint64, name string) {
		st.WallMS = float64(total) / float64(time.Millisecond)
		st.SimMegacycles = float64(st.TotalCycles) / 1e6
		st.NsPerMegacycle = float64(total.Nanoseconds()) / st.SimMegacycles
		st.ConfigsPerSec = float64(len(jobs)) / total.Seconds()
		st.AllocBytesPerConfig = float64(alloc) / float64(len(jobs))
		log.Printf("%-7s %7.0f ms  %8.0f ns/Mcycle  %6.2f configs/s  %8.0f B/config",
			name, st.WallMS, st.NsPerMegacycle, st.ConfigsPerSec, st.AllocBytesPerConfig)
	}
	finish(&stStats, stTotal, stAlloc, "stepper")
	evStats.ExecutedFraction = float64(evStats.ExecutedCycles) / float64(evStats.TotalCycles)
	finish(&evStats, evTotal, evAlloc, "event")
	rec.Engines["stepper"] = stStats
	rec.Engines["event"] = evStats

	rec.Speedup = stStats.WallMS / evStats.WallMS
	slow := 0
	for _, name := range names {
		row := perWorkload[name]
		row.Speedup = row.StepperMS / row.EventMS
		rec.PerWorkload = append(rec.PerWorkload, *row)
		if *minSpeedup > 0 && row.Speedup < *minSpeedup {
			log.Printf("FAIL: %s event engine speedup %.3fx below floor %.2fx (stepper %.1f ms, event %.1f ms)",
				name, row.Speedup, *minSpeedup, row.StepperMS, row.EventMS)
			slow++
		}
	}
	log.Printf("campaign speedup (event vs stepper): %.2fx", rec.Speedup)

	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)

	if slow > 0 {
		log.Fatalf("%d workload(s) below the per-workload speedup floor", slow)
	}
	if *compare != "" {
		if err := compareAgainst(*compare, rec, *maxRegress); err != nil {
			log.Fatal(err)
		}
	}
}

// compareAgainst diffs the fresh record's aggregate throughput and
// allocation against a committed baseline and errors on a throughput
// regression beyond tolerance or allocation growth beyond
// maxAllocGrowth. A baseline without a number skips that check.
func compareAgainst(path string, fresh record, tolerance float64) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var base record
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("compare %s: %w", path, err)
	}
	for _, engine := range []string{"stepper", "event"} {
		if was := base.Engines[engine].AllocBytesPerConfig; was > 0 {
			now := fresh.Engines[engine].AllocBytesPerConfig
			log.Printf("compare %-7s B/config:  committed %.0f, fresh %.0f (%.2fx)", engine, was, now, now/was)
			if now > maxAllocGrowth*was {
				return fmt.Errorf("compare: %s engine allocates %.0f B/config, more than %.0fx the committed %.0f in %s",
					engine, now, maxAllocGrowth, was, path)
			}
		}
		was := base.Engines[engine].ConfigsPerSec
		now := fresh.Engines[engine].ConfigsPerSec
		if was <= 0 {
			continue
		}
		drop := 1 - now/was
		log.Printf("compare %-7s configs/s: committed %.2f, fresh %.2f (%+.1f%%)",
			engine, was, now, 100*(now/was-1))
		if drop > tolerance {
			return fmt.Errorf("compare: %s engine configs_per_sec regressed %.1f%% (> %.0f%% tolerated) against %s",
				engine, 100*drop, 100*tolerance, path)
		}
	}
	return nil
}
