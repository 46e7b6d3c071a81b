// The race detector makes sync.Pool drop a random share of Puts, so
// this gate runs only without it.

//go:build !race

package sim

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestRunAllocBudget pins the LLC recycling: once one System has run,
// the next New + Run of the same shape takes its 1.18 MB of line arrays
// from the cache package's pool instead of the heap. The budget is
// well under the arrays' size and well over everything else a small
// single-core run allocates.
func TestRunAllocBudget(t *testing.T) {
	const budget = 256 << 10
	// No collection may empty the pool between the runs, and with one
	// P the release and the next New share sync.Pool's per-P slot.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	cfg := quickConfig("mcf")
	cfg.Mechanism = ChargeCache
	mustRun(t, cfg)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustRun(t, cfg)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("second New + Run allocated %d bytes", got)
	if got >= budget {
		t.Errorf("second New + Run allocated %d bytes, budget %d (LLC line arrays not recycled?)", got, budget)
	}
}
