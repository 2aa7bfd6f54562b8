package serve

import (
	"sync"
	"time"

	"mdacache/internal/experiments"
	"mdacache/internal/obs"
)

// job is the in-memory twin of a jobRecord plus its live machinery: the event
// broker, the cancel hook of a running sweep, and the progress counters.
type job struct {
	id  string
	key string

	mu       sync.Mutex
	state    State
	err      *APIError
	budget   Budget
	specs    []experiments.RunSpec
	created  time.Time
	started  time.Time
	finished time.Time

	completed int
	failed    int
	resumed   int

	seq       uint64
	cancelled bool          // a client asked for cancellation
	cancel    func()        // cancels the running sweep (nil unless running)
	done      chan struct{} // closed when the job reaches a terminal state

	// changed is closed and replaced on every state transition so long-poll
	// waiters can re-check the job instead of blocking on a handle that a
	// drain, steal, or re-admission has already left behind (the stale-job
	// window: j.done never closes for a parked job).
	changed chan struct{}

	// Lease bookkeeping, mirrored from the durable record: the node that
	// claimed the job (== this server's NodeID while we own it) and the
	// fencing epoch of that claim.
	node  string
	epoch uint64

	// A finished job stays in memory (held) while the store lacks part of
	// it: unsaved is its terminal record when that save failed, and logGap
	// says an event append failed, so only the broker has the whole stream.
	// The fleet loop retries both (retryFinish) and then drops the job.
	held    bool
	unsaved *jobRecord
	logGap  bool

	// pubMu serializes seq assignment + event-log append + broadcast so
	// concurrent publishers (Cancel racing onRun, say) cannot emit events out
	// of seq order — the stream's dense ordering is a documented contract.
	// Ordering: pubMu is taken before mu and never while holding mu.
	pubMu  sync.Mutex
	broker *obs.Broker[JobEvent]
}

func newJob(id, key string, specs []experiments.RunSpec, budget Budget, created time.Time) *job {
	return &job{
		id:      id,
		key:     key,
		state:   StateQueued,
		budget:  budget,
		specs:   specs,
		created: created,
		done:    make(chan struct{}),
		changed: make(chan struct{}),
		broker:  obs.NewBroker[JobEvent](),
	}
}

// notifyLocked wakes every watcher of the job's state. Caller holds j.mu.
func (j *job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// record snapshots the job into its durable form. Caller holds j.mu.
func (j *job) recordLocked() jobRecord {
	return jobRecord{
		ID:         j.id,
		Key:        j.key,
		State:      j.state,
		Error:      j.err,
		Budget:     j.budget,
		Specs:      j.specs,
		CreatedMS:  msTime(j.created),
		StartedMS:  msTime(j.started),
		FinishedMS: msTime(j.finished),
		NodeID:     j.node,
		Epoch:      j.epoch,
	}
}

// status snapshots a live job for GET /jobs/{id}; queuePos is 1-based (0 when
// not queued). live is false once the job has finished: its status is then
// the store's to give, with the run list the store alone keeps.
func (j *job) status(queuePos int) (st JobStatus, live bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return JobStatus{}, false
	}
	st = JobStatus{
		ID:         j.id,
		State:      j.state,
		Error:      j.err,
		Budget:     j.budget,
		CreatedMS:  msTime(j.created),
		StartedMS:  msTime(j.started),
		FinishedMS: msTime(j.finished),
		Specs:      len(j.specs),
		Completed:  j.completed,
		Failed:     j.failed,
		Resumed:    j.resumed,
		Node:       j.node,
	}
	if j.state == StateQueued {
		st.Queue = queuePos
	}
	return st, true
}

// nextEventLocked stamps a fresh event with the job's identity and the next
// sequence number. Caller holds j.mu.
func (j *job) nextEventLocked() JobEvent {
	ev := JobEvent{Seq: j.seq, JobID: j.id, TimeMS: time.Now().UnixMilli()}
	j.seq++
	return ev
}
