package server

import (
	"errors"
	"fmt"
)

// ErrIneligible marks a job a particular daemon cannot faithfully
// execute — today, a trace-file config whose paths the daemon's
// advertised trace root does not cover. The client wraps its
// pre-submission rejections with it so fleet schedulers can tell "this
// worker must not run this job" (route it elsewhere, keep the worker)
// from a transport failure (the worker is gone).
var ErrIneligible = errors.New("job not executable on this daemon")

// ReasonDeadline is the machine-readable failure reason carried on
// JobStatus.Reason (and through RemoteJobError.Reason) when the job's
// propagated deadline expired before it could finish — retryable on a
// less loaded worker, not evidence the simulation or the daemon is
// broken. Fleet schedulers classify it without parsing error strings.
const ReasonDeadline = "deadline"

// ErrCodeDeadlineUnmeetable is the structured error code of an
// admission-time load shed: the daemon's estimated queue drain time
// already exceeds the submission's deadline, so accepting the job would
// only waste a scheduler slot.
const ErrCodeDeadlineUnmeetable = "deadline_unmeetable"

// DeadlineHeader carries a request's absolute deadline (milliseconds
// since the Unix epoch) from client to daemon, letting the manager
// enforce the caller's context deadline queue-side.
const DeadlineHeader = "X-Ccsimd-Deadline-Ms"

// RemoteJobError reports a job that a remote daemon accepted and then
// finished unsuccessfully — failed or canceled server-side — as opposed
// to a transport error, after which the peer's state is unknown and the
// job is retryable on another worker.
type RemoteJobError struct {
	Endpoint string   // base URL of the daemon that ran the job
	JobID    string   // the daemon's job ID
	State    JobState // failed or canceled
	Message  string   // the daemon's error string
	Reason   string   // machine-readable cause (ReasonDeadline or "")
}

// Error implements error.
func (e *RemoteJobError) Error() string {
	return fmt.Sprintf("remote job %s on %s %s: %s", e.JobID, e.Endpoint, e.State, e.Message)
}
