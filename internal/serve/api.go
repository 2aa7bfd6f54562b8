// Package serve is the long-running simulation service behind cmd/mdaserve:
// an HTTP/JSON daemon that accepts simulation and sweep jobs, runs them on
// the experiments.RunSweep worker pool, streams per-run progress (including
// obs metric snapshots), and persists every job through the atomic checkpoint
// store so a crashed or killed daemon resumes its work bit-identically.
//
// Robustness is the design center, not a feature:
//
//   - Admission control: a bounded queue sheds load with typed 429/503
//     responses instead of degrading in-flight jobs.
//   - Budgets: every run carries a simulated-cycle and wall-clock budget;
//     a submission that names none gets the server's defaults.
//   - Isolation: a panicking worker fails only its own job.
//   - Durability: job state and sweep checkpoints are written atomically and
//     fsynced; transient write failures are retried with backoff.
//   - Drain: shutdown stops admission, lets in-flight jobs finish (or
//     checkpoints them at the drain deadline), and resumes them on restart.
//
// There is one serving mode. Every Server is a fleet member (Options.NodeID,
// default "local"): its jobs hold leases in the shared state dir, and every
// write on a job's behalf is fenced on the job's claim epoch, so a lone
// server is a fleet of one and servers sharing StateDir steal each other's
// expired jobs (lease.go, fleetnode.go).
package serve

import (
	"fmt"
	"time"

	"mdacache/internal/core"
	"mdacache/internal/experiments"
	"mdacache/internal/obs"
	"mdacache/internal/sim"
	"mdacache/internal/workloads"
)

// State is a job's position in the lifecycle state machine:
//
//	queued → running → done | failed | cancelled
//	           ↓ (daemon stops, drain deadline, infra error)
//	        checkpointed → running (on restart)
//	queued → shed (drain abandoned it before it ran; re-queued on restart)
type State string

const (
	// StateQueued: admitted, waiting for a job slot.
	StateQueued State = "queued"
	// StateRunning: executing on the sweep worker pool.
	StateRunning State = "running"
	// StateCheckpointed: interrupted (drain deadline, daemon restart, or a
	// checkpoint infrastructure error) with its progress on disk; it
	// re-enters the queue on the next start and resumes, not restarts.
	StateCheckpointed State = "checkpointed"
	// StateShed: overload/drain abandoned the job before it ever ran.
	// Like checkpointed, it is re-admitted on restart.
	StateShed State = "shed"
	// StateDone: finished; every run has a recorded outcome.
	StateDone State = "done"
	// StateFailed: infrastructure failure (not a per-run simulation
	// failure — those live inside the run list of a done job).
	StateFailed State = "failed"
	// StateCancelled: a client cancelled it.
	StateCancelled State = "cancelled"
	// StateStolen: a fleet peer claimed this node's lease on the job; the
	// job continues elsewhere. The state is local to the losing node's
	// memory — it is never persisted (the durable record belongs to the new
	// owner) — and statuses for it carry the new owner's node/addr so a
	// client can follow the job.
	StateStolen State = "stolen"
)

// Terminal reports whether the state is final: no restart or retry will move
// the job again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Service-level error codes. They extend the sim taxonomy (sim.Code) with
// the conditions only a service has; like sim codes, the values are a schema
// clients switch on and never change meaning.
const (
	// CodeQueueFull: admission control shed the request — the job queue is
	// at capacity (HTTP 429). Retry with backoff.
	CodeQueueFull = "queue_full"
	// CodeDraining: the daemon is shutting down and not admitting work
	// (HTTP 503). Retry against the restarted daemon.
	CodeDraining = "draining"
	// CodeBadRequest: the submission failed validation (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeNotFound: no such job (HTTP 404).
	CodeNotFound = "not_found"
	// CodeCancelled: the job was cancelled by a client.
	CodeCancelled = "cancelled"
	// CodeNotOwner: this fleet node does not own the job (HTTP 409). The
	// error carries the owning node's identity and address; retry there.
	CodeNotOwner = "not_owner"
)

// APIError is the error payload of every non-2xx response and of failed
// jobs: a machine-readable code plus a human-readable message, with the full
// sim wire error attached when a simulation failure is the cause.
type APIError struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Sim     *sim.WireError `json:"sim,omitempty"`

	// RetryAfterMS is the server's backoff hint for retryable errors
	// (queue_full, draining), derived from actual load — queue depth times
	// the observed mean job duration, or the remaining drain budget — not a
	// constant. The Retry-After header is this value rounded up to seconds.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`

	// Node/NodeAddr name the fleet node that can serve the request when this
	// one cannot (not_owner).
	Node     string `json:"node,omitempty"`
	NodeAddr string `json:"node_addr,omitempty"`
}

func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// apiErrorf builds an APIError.
func apiErrorf(code, format string, args ...interface{}) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// SpecRequest is the JSON form of one simulation: benchmark × design ×
// configuration, with names instead of enum values so a curl invocation
// reads like the mdasim command line.
type SpecRequest struct {
	Bench  string `json:"bench"`
	Design string `json:"design"`
	N      int    `json:"n,omitempty"`      // matrix dimension (default 512/scale)
	LLCKB  int    `json:"llc_kb,omitempty"` // LLC capacity in KB at paper scale (default 1024)
	Scale  int    `json:"scale,omitempty"`  // scale divisor (default 4)

	TwoLevel      bool    `json:"two_level,omitempty"`
	TileSize      int     `json:"tile_size,omitempty"`
	PredictOrient bool    `json:"predict_orient,omitempty"`
	Tech          string  `json:"tech,omitempty"`
	SubBuffers    int     `json:"sub_buffers,omitempty"`
	WriteFailProb float64 `json:"write_fail_prob,omitempty"`
	FaultSeed     uint64  `json:"fault_seed,omitempty"`
}

// Spec resolves the request into a RunSpec, applying mdasim's defaulting
// rules. Budgets are not set here; the job layer owns them.
func (r SpecRequest) Spec() (experiments.RunSpec, error) {
	if !workloads.Valid(r.Bench) {
		return experiments.RunSpec{}, fmt.Errorf("unknown benchmark %q", r.Bench)
	}
	design, ok := core.ParseDesign(r.Design)
	if !ok {
		return experiments.RunSpec{}, fmt.Errorf("unknown design %q", r.Design)
	}
	scale := r.Scale
	if scale == 0 {
		scale = 4
	}
	if scale < 1 {
		return experiments.RunSpec{}, fmt.Errorf("scale must be >= 1 (got %d)", scale)
	}
	n := r.N
	if n == 0 {
		n = 512 / scale
	}
	if n < 1 {
		return experiments.RunSpec{}, fmt.Errorf("n must be >= 1 (got %d)", n)
	}
	llcKB := r.LLCKB
	if llcKB == 0 {
		llcKB = 1024
	}
	if llcKB < 1 {
		return experiments.RunSpec{}, fmt.Errorf("llc_kb must be >= 1 (got %d)", llcKB)
	}
	if r.WriteFailProb < 0 || r.WriteFailProb >= 1 {
		return experiments.RunSpec{}, fmt.Errorf("write_fail_prob must be in [0, 1) (got %g)", r.WriteFailProb)
	}
	return experiments.RunSpec{
		Bench:         r.Bench,
		N:             n,
		Design:        design,
		LLCBytes:      llcKB * 1024,
		TwoLevel:      r.TwoLevel,
		Scale:         scale,
		TileSize:      r.TileSize,
		PredictOrient: r.PredictOrient,
		Tech:          r.Tech,
		SubBuffers:    r.SubBuffers,
		WriteFailProb: r.WriteFailProb,
		FaultSeed:     r.FaultSeed,
	}, nil
}

// SubmitRequest is the body of POST /jobs: one or more specs plus optional
// budgets. Zero run budgets inherit the server defaults.
type SubmitRequest struct {
	Specs []SpecRequest `json:"specs"`

	// MaxCycles bounds each run's simulated clock (sim.ErrCycleLimit on
	// excess).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// RunTimeoutMS bounds each run's wall clock (sim.ErrTimeout on excess).
	RunTimeoutMS int64 `json:"run_timeout_ms,omitempty"`
	// DeadlineMS bounds the whole job's wall clock; a job past its
	// deadline fails with a timeout error (progress stays checkpointed).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SubmitResponse answers POST /jobs.
type SubmitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Deduped reports that an identical job was already queued or running
	// and this submission was single-flighted onto it: the returned ID is
	// the existing job's.
	Deduped bool `json:"deduped,omitempty"`
}

// Budget is the effective (defaults applied) budget a job runs under, echoed
// in its status so clients see what they actually got.
type Budget struct {
	MaxCycles    uint64 `json:"max_cycles,omitempty"`
	RunTimeoutMS int64  `json:"run_timeout_ms,omitempty"`
	DeadlineMS   int64  `json:"deadline_ms,omitempty"`
}

// JobStatus answers GET /jobs/{id}.
type JobStatus struct {
	ID     string    `json:"id"`
	State  State     `json:"state"`
	Error  *APIError `json:"error,omitempty"`
	Budget Budget    `json:"budget"`

	CreatedMS  int64 `json:"created_ms"`
	StartedMS  int64 `json:"started_ms,omitempty"`
	FinishedMS int64 `json:"finished_ms,omitempty"`

	Specs     int `json:"specs"`               // total runs in the job
	Completed int `json:"completed"`           // runs with a recorded outcome so far
	Failed    int `json:"failed"`              // completed runs that failed
	Resumed   int `json:"resumed"`             // runs satisfied from the checkpoint
	Queue     int `json:"queue_pos,omitempty"` // 1-based position while queued

	// Runs carries the full per-run outcomes (including metric snapshots)
	// once the job is done; streaming clients get them incrementally on
	// /events instead.
	Runs []experiments.SweepRun `json:"runs,omitempty"`

	// Node/NodeAddr identify the fleet node that owns (or last owned) the
	// job; Node is empty only for a record written before every server
	// was a fleet member and not claimed since. A client holding a stolen
	// job's old owner follows NodeAddr to the new one.
	Node     string `json:"node,omitempty"`
	NodeAddr string `json:"node_addr,omitempty"`
}

// JobEvent is one NDJSON line on GET /jobs/{id}/events. Every event carries
// the job ID, a per-job sequence number (dense, starting at 0 — a
// reconnecting client can detect gaps), and a wall-clock stamp.
type JobEvent struct {
	Seq    uint64 `json:"seq"`
	JobID  string `json:"job"`
	TimeMS int64  `json:"t_ms"`
	Type   string `json:"type"` // "state" or "run"

	// Type "state": the transition and, on failure, the error.
	State State     `json:"state,omitempty"`
	Error *APIError `json:"error,omitempty"`

	// Type "run": one finished run, with its obs metrics snapshot.
	Run *RunEvent `json:"run,omitempty"`
}

// RunEvent summarises one finished run for the event stream.
type RunEvent struct {
	Index   int      `json:"index"` // position in the submitted spec list
	Spec    string   `json:"spec"`  // human-readable spec name
	Cycles  uint64   `json:"cycles,omitempty"`
	Err     string   `json:"err,omitempty"`
	ErrCode sim.Code `json:"err_code,omitempty"`
	Resumed bool     `json:"resumed,omitempty"`
	Cached  bool     `json:"cached,omitempty"` // satisfied by the cross-job spec cache

	// Metrics is the run's full obs snapshot — the "streamed progress"
	// payload. Nil for failed runs.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Health answers GET /healthz.
type Health struct {
	Status   string `json:"status"` // "ok" or "draining"
	Jobs     int    `json:"jobs"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	UptimeMS int64  `json:"uptime_ms"`
	Node     string `json:"node,omitempty"` // this server's fleet node ID
}

// FleetNode is one registered fleet member in GET /fleetz.
type FleetNode struct {
	Node      string `json:"node"`
	Addr      string `json:"addr"`
	PID       int    `json:"pid,omitempty"`
	UpdatedMS int64  `json:"updated_ms"`
	// Alive reports that the node heartbeated within a few lease periods.
	Alive bool `json:"alive"`
}

// FleetStatus answers GET /fleetz.
type FleetStatus struct {
	Self  string      `json:"self"`
	Nodes []FleetNode `json:"nodes"`
}

// msTime converts a time to the wire's millisecond representation (0 for the
// zero time).
func msTime(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}
