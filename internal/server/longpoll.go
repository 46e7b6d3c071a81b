package server

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// MaxLongPoll caps the wait= parameter of the status routes, well below
// the client's two-minute HTTP timeout.
const MaxLongPoll = 30 * time.Second

// parseWait reads a status request's wait= parameter: a Go duration
// ("25s", "500ms"), capped at MaxLongPoll. Absent means zero — answer
// at once.
func parseWait(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("server: wait=%q is not a non-negative duration such as 25s", raw)
	}
	return min(d, MaxLongPoll), nil
}

// settleLocked marks j's terminal transition: it feeds the job's queue
// wait and run time into the stage histograms and wakes every
// long-poll waiter. Caller holds m.mu.
func (m *Manager) settleLocked(j *job) {
	if !j.startedAt.IsZero() && j.state != StateCanceled {
		m.counters.stages.queueWait.observe(j.startedAt.Sub(j.submittedAt))
		m.counters.stages.run.observe(j.finishedAt.Sub(j.startedAt))
	}
	m.wakeLocked()
}

// wakeLocked closes and replaces the settled channel, waking every
// long-poll waiter to re-read its jobs. Called on every terminal
// transition and every eviction. Caller holds m.mu.
func (m *Manager) wakeLocked() {
	close(m.settled)
	m.settled = make(chan struct{})
}

// servedLocked records that a status route answered with j's terminal
// status; the first such answer closes the job's finished-to-served
// stage. Caller holds m.mu.
func (m *Manager) servedLocked(j *job) {
	if j.served {
		return
	}
	j.served = true
	m.counters.stages.served.observe(time.Since(j.finishedAt))
}

// awaitSettled runs snap under m.mu until snap reports true, ctx or the
// manager ends, or wait elapses; after a timeout snap runs once more, so
// the caller answers with current state. Each pass reads m.settled in
// the same critical section as its snapshot, so a job that settles
// between the snapshot and the wait still wakes it. wait <= 0 runs snap
// once.
func (m *Manager) awaitSettled(ctx context.Context, wait time.Duration, snap func() bool) {
	var expired <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		expired = t.C
	}
	for {
		m.mu.Lock()
		done := snap()
		settled := m.settled
		m.mu.Unlock()
		if done || wait <= 0 {
			return
		}
		if m.parkedHook != nil {
			m.parkedHook()
		}
		select {
		case <-settled:
		case <-expired:
			wait = 0
		case <-ctx.Done():
			return
		case <-m.ctx.Done():
			return
		}
	}
}

// WaitJobAs is JobAs as a long-poll: while the job is live it holds for
// up to wait until the job is terminal or evicted (ErrUnknownJob), then
// answers with its status, result included when done. Cancelling ctx
// ends the wait early.
func (m *Manager) WaitJobAs(ctx context.Context, caller Tenant, id string, wait time.Duration) (JobStatus, error) {
	var st JobStatus
	var err error
	m.awaitSettled(ctx, wait, func() bool {
		j, ok := m.jobs[id]
		if !ok || !m.canSeeLocked(caller, j) {
			st, err = JobStatus{}, ErrUnknownJob
			return true
		}
		st, err = m.statusLocked(j, true), nil
		if !j.state.Terminal() {
			return false
		}
		m.servedLocked(j)
		return true
	})
	return st, err
}

// WaitJobsByIDAs returns the statuses of the named jobs caller may see,
// without result payloads, omitting unknown, evicted and invisible IDs.
// It holds for up to wait until at least one named job is terminal or
// gone. Cancelling ctx ends the wait early.
func (m *Manager) WaitJobsByIDAs(ctx context.Context, caller Tenant, ids []string, wait time.Duration) []JobStatus {
	var out []JobStatus
	m.awaitSettled(ctx, wait, func() bool {
		out = make([]JobStatus, 0, len(ids))
		settled := false
		for _, id := range ids {
			j, ok := m.jobs[id]
			if !ok || !m.canSeeLocked(caller, j) {
				settled = true
				continue
			}
			if j.state.Terminal() {
				settled = true
				m.servedLocked(j)
			}
			out = append(out, m.statusLocked(j, false))
		}
		return settled
	})
	return out
}
