package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// tinyConfig returns a fast simulation config differentiated by seed.
func tinyConfig(workload string, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(workload)
	cfg.WarmupInstructions = 10_000
	cfg.RunInstructions = 20_000
	cfg.Seed = seed
	return cfg
}

func runSerial(t *testing.T, cfg sim.Config) sim.Result {
	t.Helper()
	res, err := runOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterministicAcrossWorkers runs the same fixed-seed configs twice
// serially and through the engine with 1, 4 and 8 workers, and demands
// bit-identical results (IPC vectors, mechanism stats, command counts —
// the whole Result) every time.
func TestDeterministicAcrossWorkers(t *testing.T) {
	cc := tinyConfig("lbm", 12345)
	cc.Mechanism = sim.ChargeCache
	configs := []sim.Config{
		tinyConfig("lbm", 12345),
		cc,
		tinyConfig("mcf", 7),
	}

	// Twice serially: the simulator itself must be deterministic.
	for i, cfg := range configs {
		first := runSerial(t, cfg)
		second := runSerial(t, cfg)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("config %d: two serial runs differ", i)
		}
	}

	want := make([]sim.Result, len(configs))
	for i, cfg := range configs {
		want[i] = runSerial(t, cfg)
	}

	jobs := make([]Job, len(configs))
	for i, cfg := range configs {
		jobs[i] = Job{Label: fmt.Sprintf("job%d", i), Config: cfg}
	}
	for _, workers := range []int{1, 4, 8} {
		got, err := Run(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d: result %d differs from serial run", workers, i)
			}
		}
	}
}

// TestRecycledLinesAcrossSizes runs a campaign that mixes two LLC
// sizes, so the cache package's pool of line arrays passes sets between
// worker goroutines and meets sizes it cannot reuse. Every result must
// be byte-identical to a one-worker run's: a set handed out uncleared
// or at the wrong size would change (or crash) a simulation.
func TestRecycledLinesAcrossSizes(t *testing.T) {
	var jobs []Job
	for i, w := range []string{"lbm", "mcf", "tonto", "libquantum", "hmmer", "tpch6"} {
		for _, size := range []int{4 << 20, 2 << 20} {
			cfg := tinyConfig(w, uint64(i+1))
			cfg.LLC.SizeBytes = size
			if i%2 == 1 {
				cfg.Mechanism = sim.ChargeCache
			}
			jobs = append(jobs, Job{Label: fmt.Sprintf("%s/%dMB", w, size>>20), Config: cfg})
		}
	}
	run := func(workers int) []byte {
		t.Helper()
		res, err := Run(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	serial := run(1)
	for pass := 0; pass < 2; pass++ {
		if got := run(4); !bytes.Equal(got, serial) {
			t.Fatalf("pass %d: 4-worker results differ from the 1-worker run", pass)
		}
	}
}

// TestResultsInInputOrder checks the order guarantee with distinct
// workloads: result i must belong to job i.
func TestResultsInInputOrder(t *testing.T) {
	names := []string{"lbm", "mcf", "libquantum", "sjeng", "milc", "soplex"}
	jobs := make([]Job, len(names))
	for i, n := range names {
		jobs[i] = Job{Label: n, Config: tinyConfig(n, uint64(i+1))}
	}
	results, err := Run(context.Background(), jobs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Config.Workloads[0] != names[i] {
			t.Errorf("result %d is %s, want %s", i, res.Config.Workloads[0], names[i])
		}
	}
}

// TestValidateFailureCancelsCleanly submits a batch whose middle config
// fails Validate: the sweep must stop early, report the failure with
// its label and position, and leave no goroutines behind.
func TestValidateFailureCancelsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()

	bad := tinyConfig("lbm", 1)
	bad.Channels = 3 // not a power of two: rejected by Validate
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, Job{Label: fmt.Sprintf("ok%d", i), Config: tinyConfig("lbm", uint64(i+1))})
	}
	jobs[3] = Job{Label: "bad-channels", Config: bad}

	_, err := Run(context.Background(), jobs, Options{Workers: 4})
	if err == nil {
		t.Fatal("invalid config did not fail the sweep")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("error %T is not a *JobError: %v", err, err)
	}
	if je.Index != 3 || je.Label != "bad-channels" {
		t.Errorf("error names job %d (%s), want 3 (bad-channels)", je.Index, je.Label)
	}
	checkNoGoroutineLeak(t, before)
}

// TestBuildFailureMidBatch exercises the error path for a config that
// passes Validate but fails during system construction (unknown DRAM
// standard), i.e. an error raised inside a worker mid-batch.
func TestBuildFailureMidBatch(t *testing.T) {
	before := runtime.NumGoroutine()

	bad := tinyConfig("lbm", 1)
	bad.Standard = "ddr9"
	jobs := []Job{
		{Label: "ok0", Config: tinyConfig("lbm", 2)},
		{Label: "bad-standard", Config: bad},
		{Label: "ok1", Config: tinyConfig("mcf", 3)},
	}
	_, err := Run(context.Background(), jobs, Options{Workers: 2})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("error %T is not a *JobError: %v", err, err)
	}
	if je.Label != "bad-standard" {
		t.Errorf("error label = %q, want bad-standard", je.Label)
	}
	checkNoGoroutineLeak(t, before)
}

// TestContextCancellation checks a cancelled context stops the sweep
// and is reported.
func TestContextCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var jobs []Job
	for i := 0; i < 16; i++ {
		jobs = append(jobs, Job{Label: fmt.Sprintf("j%d", i), Config: tinyConfig("lbm", uint64(i+1))})
	}
	_, err := Run(ctx, jobs, Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestProgressEvents checks every job reports exactly once, with a
// consistent Done counter, and that callbacks are serialized.
func TestProgressEvents(t *testing.T) {
	var (
		mu     sync.Mutex
		events []Event
	)
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{Label: fmt.Sprintf("j%d", i), Config: tinyConfig("lbm", uint64(i+1))}
	}
	_, err := Run(context.Background(), jobs, Options{
		Workers: 3,
		Progress: func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, ev)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(jobs) {
		t.Fatalf("%d events, want %d", len(events), len(jobs))
	}
	seen := map[int]bool{}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(jobs) {
			t.Errorf("event %d: Done=%d Total=%d", i, ev.Done, ev.Total)
		}
		if seen[ev.Index] {
			t.Errorf("job %d reported twice", ev.Index)
		}
		seen[ev.Index] = true
		if ev.Err != nil || ev.Cached {
			t.Errorf("event %d: unexpected Err/Cached: %+v", i, ev)
		}
	}
}

// TestEmptySweep must be a no-op.
func TestEmptySweep(t *testing.T) {
	results, err := Run(context.Background(), nil, Options{Workers: 8})
	if err != nil || results != nil {
		t.Fatalf("empty sweep: results=%v err=%v", results, err)
	}
}

// checkNoGoroutineLeak waits for the goroutine count to settle back to
// the pre-sweep level (plus slack for runtime helpers).
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before sweep, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
