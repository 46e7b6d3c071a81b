package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// jobEvent is one entry of a job's event history: a status snapshot
// plus the sequence number SSE clients use as the Last-Event-ID resume
// cursor. Sequences start at 1 with the submission snapshot and
// increase by 1 per transition, so a reconnecting client replays
// exactly the events it missed — no gaps, no duplicates.
type jobEvent struct {
	seq uint64
	st  JobStatus
}

// recordEventLocked appends j's status st to its event history and
// returns the stamped event. Callers hold m.mu.
func (m *Manager) recordEventLocked(j *job, st JobStatus) jobEvent {
	ev := jobEvent{seq: uint64(len(j.events)) + 1, st: st}
	j.events = append(j.events, ev)
	return ev
}

// Subscribe registers for a job's lifecycle events after sequence
// afterSeq (0 replays everything). It returns the missed events, a
// channel of subsequent ones, and an unsubscribe function. The channel
// is closed after the terminal event (immediately when the job is
// already terminal). Slow consumers never block the manager: events
// beyond the channel buffer are dropped, and the SSE handler
// resubscribes after close so the terminal state (and anything dropped
// before it) is always delivered.
func (m *Manager) Subscribe(id string, afterSeq uint64) ([]jobEvent, <-chan jobEvent, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, nil, ErrUnknownJob
	}
	var replay []jobEvent
	for _, ev := range j.events {
		if ev.seq > afterSeq {
			replay = append(replay, ev)
		}
	}
	if j.state.Terminal() {
		ch := make(chan jobEvent)
		close(ch)
		return replay, ch, func() {}, nil
	}
	ch := make(chan jobEvent, 16)
	sub := j.nextSub
	j.nextSub++
	j.subs[sub] = ch
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		delete(j.subs, sub) // sends happen under mu, so no racing close
	}
	return replay, ch, cancel, nil
}

// notifyLocked records j's current status in its event history and fans
// it out to subscribers, closing every channel — and settling the job
// for long-poll waiters — when the state is terminal. Callers hold m.mu.
func (m *Manager) notifyLocked(j *job) {
	ev := m.recordEventLocked(j, m.statusLocked(j, j.state.Terminal()))
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow consumer: drop; history replay covers the gap
		}
	}
	if j.state.Terminal() {
		for sub, ch := range j.subs {
			close(ch)
			delete(j.subs, sub)
		}
		m.settleLocked(j)
	}
}

// writeSSE emits one Server-Sent Event frame. data must not contain
// newlines (our payloads are single-line JSON).
func writeSSE(w io.Writer, event string, data []byte) error {
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// writeSSEID emits one Server-Sent Event frame carrying an event id,
// the cursor browsers echo back in Last-Event-ID on reconnect.
func writeSSEID(w io.Writer, id, event string, data []byte) error {
	_, err := fmt.Fprintf(w, "id: %s\nevent: %s\ndata: %s\n\n", id, event, data)
	return err
}

// handleJobEvents streams a job's lifecycle over SSE: a status event
// per transition (id: the event sequence), then a final "done" event
// once the job is terminal. Last-Event-ID (or ?last_event_id=) resumes
// after the given sequence, replaying missed transitions from the
// job's event history.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.manager.jobVisibleAs(caller(r), id) {
		writeError(w, http.StatusNotFound, ErrUnknownJob)
		return
	}
	last := lastEventID(r)
	replay, ch, unsubscribe, err := s.manager.Subscribe(id, last)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer unsubscribe()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("server: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	lastState := JobState("")
	send := func(ev jobEvent) bool {
		blob, err := json.Marshal(ev.st)
		if err != nil {
			return false
		}
		if err := writeSSEID(w, strconv.FormatUint(ev.seq, 10), "status", blob); err != nil {
			return false
		}
		flusher.Flush()
		last = ev.seq
		lastState = ev.st.State
		return true
	}
	for _, ev := range replay {
		if !send(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// Closed on the terminal transition. Replay anything a
				// slow consumer dropped (including the terminal status
				// itself) from the history, then signal completion.
				if !lastState.Terminal() {
					if missed, _, unsub, err := s.manager.Subscribe(id, last); err == nil {
						unsub()
						for _, ev := range missed {
							if !send(ev) {
								return
							}
						}
					}
				}
				_ = writeSSE(w, "done", []byte("{}"))
				flusher.Flush()
				return
			}
			if ev.seq <= last {
				continue // already delivered via replay
			}
			if !send(ev) {
				return
			}
		}
	}
}
