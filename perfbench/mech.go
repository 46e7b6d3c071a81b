package main

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/sim"
)

// mechSamplePeriod times one call in this many per hook, like the
// simulator's own phase profiler, so the clock reads stay off most
// calls.
const mechSamplePeriod = 64

// hookStat accumulates one mechanism hook's calls and sampled time.
type hookStat struct {
	calls   uint64
	samples uint64
	ns      int64
}

// begin counts a call and returns a start time on sampled calls.
func (h *hookStat) begin() (time.Time, bool) {
	h.calls++
	if h.calls%mechSamplePeriod != 1 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (h *hookStat) end(start time.Time) {
	h.ns += int64(time.Since(start))
	h.samples++
}

// estimatedNs extrapolates the hook's total cost: the mean sampled
// duration times every call.
func (h hookStat) estimatedNs() float64 {
	return ratio(float64(h.ns), float64(h.samples)) * float64(h.calls)
}

// mechTrace is one System's mechanism timing, summed over channels.
// Counters restart when the simulator resets statistics after warm-up,
// so they cover the measured window; measuredFrom marks that moment.
type mechTrace struct {
	activate, precharge, tick hookStat
	measuredFrom              time.Time
}

// timedMech wraps a mechanism and times its three hooks. The simulator
// drives a System from one goroutine, so the counters need no locking.
type timedMech struct {
	core.Mechanism
	t *mechTrace
}

func (m timedMech) OnActivate(key core.RowKey, now, refreshAge dram.Cycle) dram.TimingClass {
	start, ok := m.t.activate.begin()
	class := m.Mechanism.OnActivate(key, now, refreshAge)
	if ok {
		m.t.activate.end(start)
	}
	return class
}

func (m timedMech) OnPrecharge(key core.RowKey, now dram.Cycle) {
	start, ok := m.t.precharge.begin()
	m.Mechanism.OnPrecharge(key, now)
	if ok {
		m.t.precharge.end(start)
	}
}

func (m timedMech) Tick(now dram.Cycle) {
	start, ok := m.t.tick.begin()
	m.Mechanism.Tick(now)
	if ok {
		m.t.tick.end(start)
	}
}

// ResetStats is the simulator's end-of-warm-up signal: every channel's
// mechanism is reset back to back, and the first reset starts the
// measured window.
func (m timedMech) ResetStats() {
	m.Mechanism.ResetStats()
	if m.t.measuredFrom.IsZero() {
		*m.t = mechTrace{measuredFrom: time.Now()}
	}
}

// wrapMechanism returns cfg with its built-in mechanism replaced by the
// same mechanism rebuilt from the public core constructors, with the
// parameters sim.New would use, and wrapped in timedMech.
func wrapMechanism(cfg sim.Config, t *mechTrace) (sim.Config, error) {
	model, err := circuit.NewModel(circuit.DefaultParams())
	if err != nil {
		return cfg, err
	}
	kind := cfg.Mechanism
	cores := len(cfg.Workloads)
	orig := cfg
	cfg.Mechanism = sim.Custom
	cfg.CustomMechanism = func(_ int, spec dram.Spec, fast, def dram.TimingClass) (core.Mechanism, error) {
		newCC := func() (*core.ChargeCache, error) {
			return core.NewChargeCache(core.ChargeCacheConfig{
				Entries:      orig.CCEntriesPerCore * cores,
				Assoc:        orig.CCAssoc,
				Duration:     spec.MillisecondsToCycles(orig.CCDurationMs),
				Fast:         fast,
				Default:      def,
				Unlimited:    orig.CCUnlimited,
				Invalidation: orig.CCInvalidation,
			})
		}
		newNUAT := func() (*core.NUAT, error) {
			bins, err := model.NUATBins(spec, circuit.DefaultNUATBoundsMs)
			if err != nil {
				return nil, err
			}
			return core.NewNUAT(core.NUATConfig{Bins: bins, Default: def})
		}
		var (
			mech core.Mechanism
			err  error
		)
		switch kind {
		case sim.Baseline:
			mech = core.NewBaseline(def)
		case sim.ChargeCache:
			mech, err = newCC()
		case sim.NUAT:
			mech, err = newNUAT()
		case sim.ChargeCacheNUAT:
			var cc *core.ChargeCache
			var n *core.NUAT
			if cc, err = newCC(); err == nil {
				if n, err = newNUAT(); err == nil {
					mech = core.NewChargeCacheNUAT(cc, n)
				}
			}
		case sim.LLDRAM:
			mech = core.NewLLDRAM(fast)
		default:
			err = fmt.Errorf("no built-in mechanism %v to wrap", kind)
		}
		if err != nil {
			return nil, err
		}
		return timedMech{Mechanism: mech, t: t}, nil
	}
	return cfg, nil
}
