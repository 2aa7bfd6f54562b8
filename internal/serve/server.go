package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"mdacache/internal/core"
	"mdacache/internal/experiments"
	"mdacache/internal/sim"
)

// Options configures a Server. Only StateDir is required: with the other
// fields zero it queues up to 64 jobs, runs GOMAXPROCS simulations and as
// many jobs at a time, and imposes a 30-minute cycle-unlimited default budget
// per run.
type Options struct {
	// StateDir roots the durable job store: job records, sweep checkpoints
	// and event logs, from which a restarted server resumes. Required.
	StateDir string

	// MaxQueue bounds how many jobs may wait for a slot; submissions beyond
	// it are shed with CodeQueueFull (HTTP 429). Default 64.
	MaxQueue int
	// MaxActive bounds how many jobs run concurrently. Default: Workers.
	// Running jobs share the simulation slots, so more active jobs do not
	// mean more simulations at once; they let one job's checkpoint flush or
	// spec-memo wait overlap another job's simulation.
	MaxActive int
	// Workers is the number of simulation slots the whole server shares
	// (0 = GOMAXPROCS): at most Workers runs simulate at once, across every
	// job. It also sizes each job's sweep pool.
	Workers int

	// DefaultMaxCycles is the per-run simulated-cycle budget applied when a
	// submission names none. 0 = unlimited.
	DefaultMaxCycles uint64
	// DefaultRunTimeout is likewise the per-run wall-clock budget. It
	// defaults to 30m so a wedged run can never hold a slot forever.
	DefaultRunTimeout time.Duration

	// FlushEvery is the sweep checkpoint flush cadence (runs per flush;
	// default 1 — a service values durability over flush amortisation).
	FlushEvery int

	// DrainTimeout bounds how long Shutdown waits for running jobs before
	// checkpointing and abandoning them. Default 30s.
	DrainTimeout time.Duration

	// NodeID names this process among the daemons sharing StateDir. Every
	// server is a fleet member; a lone one is a fleet of one. Default
	// "local".
	NodeID string
	// Advertise is the base URL peers and clients use to reach this node,
	// e.g. "http://127.0.0.1:8080". Registered in the shared membership
	// directory on every heartbeat.
	Advertise string
	// Lease is how long a job claim lasts without renewal before any peer
	// may steal it. Default 3s. Renewal runs every Lease/3, so a node must
	// miss two consecutive renewals (or die) to lose a job.
	Lease time.Duration

	// Log receives operational lines (nil = silent).
	Log io.Writer

	// runSweep replaces experiments.RunSweep (tests: fault and panic
	// injection at the job layer).
	runSweep func(ctx context.Context, specs []experiments.RunSpec, opt experiments.SweepOptions) ([]experiments.SweepRun, error)
	// simulate replaces experiments.RunWith inside a simulation slot (tests:
	// count and hold simulations).
	simulate func(ctx context.Context, spec experiments.RunSpec, ins experiments.Instrument) (*core.Results, error)
}

func (o Options) withDefaults() Options {
	if o.MaxQueue == 0 {
		o.MaxQueue = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxActive == 0 {
		o.MaxActive = o.Workers
	}
	if o.DefaultRunTimeout == 0 {
		o.DefaultRunTimeout = 30 * time.Minute
	}
	if o.FlushEvery == 0 {
		o.FlushEvery = 1
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.NodeID == "" {
		o.NodeID = "local"
	}
	if o.Lease == 0 {
		o.Lease = 3 * time.Second
	}
	if o.runSweep == nil {
		o.runSweep = experiments.RunSweep
	}
	if o.simulate == nil {
		o.simulate = experiments.RunWith
	}
	return o
}

// specCacheSize bounds the completed design points the server shares across
// jobs (experiments.Memo).
const specCacheSize = 256

// Server is the job service: admission control in front of a bounded queue,
// a dispatcher feeding at most MaxActive concurrent sweeps, which share
// Workers simulation slots, durable job state under StateDir, and per-job
// event streams. Memory holds the live jobs: a finished job lives in the
// store, which answers for it, and stays in memory only until the store has
// taken its finish whole. Create with New, serve its Handler, and Shutdown
// to drain.
type Server struct {
	opt   Options
	store *store
	cache *experiments.Memo // design points shared across jobs
	slots chan struct{}     // one token per running simulation, server-wide
	start time.Time

	baseCtx context.Context // cancelled at the drain deadline
	baseCut context.CancelFunc

	mu        sync.Mutex
	jobs      map[string]*job // live jobs (and stolen ones' local twins)
	byKey     map[string]*job // non-terminal jobs by dedup key
	queue     []*job
	admitting int // submissions persisted but not yet enqueued
	running   int
	draining  bool
	wake      chan struct{} // kicks the dispatcher (buffered 1)
	quit      chan struct{} // stops the dispatcher
	quitOnce  sync.Once
	stopped   chan struct{} // dispatcher exited

	// meanJobMS is an EWMA of finished jobs' wall-clock durations, seeding
	// the queue_full Retry-After hint. Guarded by mu.
	meanJobMS float64
	// drainDeadline is when the drain budget lapses (set by Shutdown); the
	// draining Retry-After hint is the remaining budget. Guarded by mu.
	drainDeadline time.Time

	fleetStopped chan struct{} // fleet loop exited

	wg sync.WaitGroup // running jobs

	// testPostPersist, when set, runs between Submit's persistence write and
	// the re-acquisition of the admission lock (tests: hold the race window
	// against Shutdown open deterministically).
	testPostPersist func()
}

// New builds a Server and re-admits every resumable job found in StateDir
// whose lease it can claim: jobs that were queued, running, checkpointed or
// shed when their owner died or drained re-enter the queue (oldest first) and
// resume from their sweep checkpoints. Terminal jobs stay on disk, where
// every query about them is answered.
func New(opt Options) (*Server, error) {
	if opt.StateDir == "" {
		return nil, errors.New("serve: Options.StateDir is required")
	}
	opt = opt.withDefaults()
	s := &Server{
		opt:          opt,
		start:        time.Now(),
		jobs:         make(map[string]*job),
		byKey:        make(map[string]*job),
		wake:         make(chan struct{}, 1),
		quit:         make(chan struct{}),
		stopped:      make(chan struct{}),
		fleetStopped: make(chan struct{}),
		cache:        experiments.NewMemo(specCacheSize),
		slots:        make(chan struct{}, opt.Workers),
	}
	s.baseCtx, s.baseCut = context.WithCancel(context.Background())

	st, err := newStore(opt.StateDir)
	if err != nil {
		return nil, err
	}
	s.store = st
	recs, skipped, err := st.loadJobs()
	if err != nil {
		return nil, err
	}
	for _, dir := range skipped {
		s.logf("serve: skipping unreadable job dir %s", dir)
	}
	if err := st.reindex(recs); err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if rec.State.Terminal() {
			continue
		}
		// A peer may own (or be finishing) this job: only re-admit what we
		// can claim. Unclaimable jobs stay off the local map; their
		// statuses are served from disk.
		claimed, cerr := st.claimJob(rec.ID, opt.NodeID, opt.Lease)
		switch {
		case cerr == nil:
			// Interrupted job: back to the queue, resuming from its
			// checkpoint. The prior owner's partial progress is on disk.
			s.readmitLocked(claimed, "re-admitted")
		case errors.Is(cerr, errJobTerminal), errors.Is(cerr, errLeaseHeld):
			// A peer finished it since the scan, or holds it.
		default:
			s.logf("serve: cannot claim job %s: %v", rec.ID, cerr)
		}
	}

	go s.dispatch()
	go s.fleetLoop()
	s.kick() // start any re-admitted jobs
	return s, nil
}

// jobFromRecord rebuilds the in-memory job from its durable form.
func jobFromRecord(rec jobRecord) *job {
	j := newJob(rec.ID, rec.Key, rec.Specs, rec.Budget, time.UnixMilli(rec.CreatedMS))
	j.state = rec.State
	j.err = rec.Error
	j.node = rec.NodeID
	j.epoch = rec.Epoch
	if rec.StartedMS != 0 {
		j.started = time.UnixMilli(rec.StartedMS)
	}
	if rec.FinishedMS != 0 {
		j.finished = time.UnixMilli(rec.FinishedMS)
	}
	return j
}

// readmitLocked queues an interrupted job under this process (after a restart
// or a successful steal), replaying its persisted event log into the broker so
// the stream's sequence continues where the previous owner's stopped — a
// client reconnecting with ?from= sees one dense stream across the handoff.
// Caller holds s.mu (or is the single-threaded constructor).
func (s *Server) readmitLocked(rec jobRecord, verb string) {
	j := jobFromRecord(rec)
	was := rec.State
	j.state = StateQueued
	j.started = time.Time{}
	for _, ev := range s.store.loadEvents(j.id) {
		j.broker.Publish(ev)
		if ev.Seq >= j.seq {
			j.seq = ev.Seq + 1
		}
	}
	s.jobs[j.id] = j
	s.byKey[j.key] = j
	s.queue = append(s.queue, j)
	if err := s.persist(j); err != nil {
		s.logf("%v", err)
	}
	s.publish(j, func(ev *JobEvent) {
		ev.Type = "state"
		ev.State = StateQueued
	})
	s.logf("serve: %s job %s (%d specs, was %s)", verb, j.id, len(j.specs), was)
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.opt.Log != nil {
		fmt.Fprintf(s.opt.Log, format+"\n", args...)
	}
}

// Submit validates, admits and enqueues a job. The *APIError return carries
// the typed admission verdict: CodeBadRequest, CodeQueueFull or CodeDraining.
func (s *Server) Submit(req SubmitRequest) (SubmitResponse, *APIError) {
	if len(req.Specs) == 0 {
		return SubmitResponse{}, apiErrorf(CodeBadRequest, "no specs in submission")
	}
	specs := make([]experiments.RunSpec, len(req.Specs))
	for i, sr := range req.Specs {
		spec, err := sr.Spec()
		if err != nil {
			return SubmitResponse{}, apiErrorf(CodeBadRequest, "spec %d: %v", i, err)
		}
		specs[i] = spec
	}
	budget, aerr := s.resolveBudget(req)
	if aerr != nil {
		return SubmitResponse{}, aerr
	}
	key := jobKey(specs, budget)

	s.mu.Lock()
	if s.draining {
		aerr := apiErrorf(CodeDraining, "server is draining; retry after restart")
		aerr.RetryAfterMS = s.retryAfterDrainingLocked()
		s.mu.Unlock()
		return SubmitResponse{}, aerr
	}
	if prior, ok := s.byKey[key]; ok {
		s.mu.Unlock()
		// Identical job already queued or running: single-flight onto it.
		prior.mu.Lock()
		state := prior.state
		prior.mu.Unlock()
		return SubmitResponse{ID: prior.id, State: state, Deduped: true}, nil
	}
	// A peer may already hold an identical job: single-flight onto the
	// fleet-wide copy so concurrent clients hitting different nodes still
	// share one simulation.
	if id, state, ok := s.dedupOnDiskLocked(key); ok {
		s.mu.Unlock()
		return SubmitResponse{ID: id, State: state, Deduped: true}, nil
	}
	if len(s.queue)+s.admitting >= s.opt.MaxQueue {
		n := len(s.queue) + s.admitting
		aerr := apiErrorf(CodeQueueFull,
			"queue full (%d jobs waiting); retry with backoff", n)
		aerr.RetryAfterMS = s.retryAfterQueueFullLocked(n)
		s.mu.Unlock()
		return SubmitResponse{}, aerr
	}
	j := newJob(newJobID(), key, specs, budget, time.Now())
	j.node = s.opt.NodeID
	j.epoch = 1
	s.jobs[j.id] = j
	s.byKey[key] = j
	s.admitting++
	s.mu.Unlock()

	// Persist outside the admission lock — saveJob retries with backoff and
	// must not stall other requests — and enqueue only afterwards: admission
	// must not outlive durability, or a job we could not persist would
	// silently vanish on restart. The dedup entry above holds the key while
	// the write is in flight.
	err := s.persist(j)
	if s.testPostPersist != nil {
		s.testPostPersist()
	}
	s.mu.Lock()
	s.admitting--
	if err != nil {
		delete(s.jobs, j.id)
		if s.byKey[key] == j {
			delete(s.byKey, key)
		}
		s.mu.Unlock()
		s.logf("%v", err)
		return SubmitResponse{}, apiErrorf("internal", "cannot persist job: %v", err)
	}
	if s.draining {
		// Shutdown began while the record was being written: the queue has
		// already been shed, so enqueueing now would strand the job —
		// accepted but never run, never shed, silently lost on exit. Park it
		// as shed like the rest of the queue; the restarted daemon re-admits
		// it.
		s.mu.Unlock()
		s.parkJob(j, StateShed)
		return SubmitResponse{ID: j.id, State: StateShed}, nil
	}
	s.queue = append(s.queue, j)
	s.mu.Unlock()
	s.publish(j, func(ev *JobEvent) {
		ev.Type = "state"
		ev.State = StateQueued
	})
	s.kick()
	return SubmitResponse{ID: j.id, State: StateQueued}, nil
}

// resolveBudget applies the server's default budgets.
func (s *Server) resolveBudget(req SubmitRequest) (Budget, *APIError) {
	if req.RunTimeoutMS < 0 || req.DeadlineMS < 0 {
		return Budget{}, apiErrorf(CodeBadRequest, "budgets must be non-negative")
	}
	b := Budget{
		MaxCycles:    req.MaxCycles,
		RunTimeoutMS: req.RunTimeoutMS,
		DeadlineMS:   req.DeadlineMS,
	}
	if b.MaxCycles == 0 {
		b.MaxCycles = s.opt.DefaultMaxCycles
	}
	if b.RunTimeoutMS == 0 {
		b.RunTimeoutMS = s.opt.DefaultRunTimeout.Milliseconds()
	}
	return b, nil
}

// retryAfterQueueFullLocked derives the queue_full backoff hint from actual
// load: with n jobs ahead and MaxActive slots draining them at the observed
// mean job duration, a retry before n×mean/slots elapses meets the same full
// queue. Clamped to [1s, 5m]; the mean seeds at 1s until a job finishes.
// Caller holds s.mu.
func (s *Server) retryAfterQueueFullLocked(n int) int64 {
	mean := s.meanJobMS
	if mean <= 0 {
		mean = 1000
	}
	ms := int64(float64(n) * mean / float64(s.opt.MaxActive))
	return clampMS(ms, 1000, 5*60*1000)
}

// retryAfterDrainingLocked hints the remaining drain budget: once it lapses
// the process exits and a restart (or a fleet peer) takes the work. Caller
// holds s.mu.
func (s *Server) retryAfterDrainingLocked() int64 {
	rem := s.opt.DrainTimeout
	if !s.drainDeadline.IsZero() {
		rem = time.Until(s.drainDeadline)
	}
	return clampMS(rem.Milliseconds(), 1000, s.opt.DrainTimeout.Milliseconds())
}

func clampMS(ms, lo, hi int64) int64 {
	if hi < lo {
		hi = lo
	}
	if ms < lo {
		return lo
	}
	if ms > hi {
		return hi
	}
	return ms
}

// observeJobDuration folds one finished job's wall time into the EWMA behind
// the queue_full hint.
func (s *Server) observeJobDuration(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	if s.meanJobMS == 0 {
		s.meanJobMS = float64(d.Milliseconds())
	} else {
		s.meanJobMS = 0.7*s.meanJobMS + 0.3*float64(d.Milliseconds())
	}
	s.mu.Unlock()
}

// dedupOnDiskLocked looks for a live (non-terminal) job with the same dedup
// key anywhere in the fleet's shared store, reading only the live index and
// the records it names under key. Caller holds s.mu.
func (s *Server) dedupOnDiskLocked(key string) (id string, state State, ok bool) {
	for _, e := range s.store.liveJobs() {
		if e.key != key {
			continue
		}
		if rec, err := s.store.loadHead(e.id); err == nil && !rec.State.Terminal() {
			return rec.ID, rec.State, true
		}
	}
	return "", "", false
}

// resolveAddr maps a fleet node ID to its advertised base URL.
func (s *Server) resolveAddr(node string) string {
	if node == "" {
		return ""
	}
	if node == s.opt.NodeID {
		return s.opt.Advertise
	}
	return s.store.nodeAddr(node)
}

// notOwnerError builds the typed redirect for a job this node cannot serve,
// naming the current owner from the durable record.
func (s *Server) notOwnerError(id string) *APIError {
	aerr := apiErrorf(CodeNotOwner, "job %s is owned by another node", id)
	if rec, err := s.store.loadHead(id); err == nil {
		aerr.Node = rec.NodeID
		aerr.NodeAddr = s.resolveAddr(rec.NodeID)
		aerr.Message = fmt.Sprintf("job %s is owned by node %s", id, rec.NodeID)
	}
	return aerr
}

// Job returns the live job by ID. A finished job is not in memory; ask
// Status, which also reads the store.
func (s *Server) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Status snapshots one job wherever it is: a live job of this node from
// memory, with its queue position; a finished job, or one a peer holds, from
// the fleet's shared store. So any node answers for any job, and a client can
// re-resolve a stolen job's owner by asking whoever responds. includeRuns
// attaches a finished job's run list.
func (s *Server) Status(id string, includeRuns bool) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	pos := 0
	if ok {
		for i, q := range s.queue {
			if q == j {
				pos = i + 1
				break
			}
		}
	}
	s.mu.Unlock()
	if ok {
		if st, live := j.status(pos); live {
			if st.State == StateStolen {
				// The durable record names the thief — point the client there.
				if rec, err := s.store.loadHead(id); err == nil {
					st.Node = rec.NodeID
				}
			}
			st.NodeAddr = s.resolveAddr(st.Node)
			return st, true
		}
		j.mu.Lock()
		rec := j.unsaved
		j.mu.Unlock()
		if rec != nil {
			return s.recordStatus(*rec, includeRuns), true
		}
		// Finished: its terminal record is durable, so the store answers.
	}
	return s.storedStatus(id, includeRuns)
}

// storedStatus answers a status query from the job's durable record. Without
// runs it decodes only each run's Err and Resumed fields.
func (s *Server) storedStatus(id string, includeRuns bool) (JobStatus, bool) {
	if includeRuns {
		full, err := s.store.loadJob(id)
		if err != nil {
			return JobStatus{}, false
		}
		return s.recordStatus(full, true), true
	}
	rec, err := s.store.loadHead(id)
	if err != nil {
		return JobStatus{}, false
	}
	return s.headStatus(rec, nil), true
}

// recordStatus answers a status query from a whole job record.
func (s *Server) recordStatus(full jobRecord, includeRuns bool) JobStatus {
	rec := jobHead{jobRecord: full}
	for _, r := range full.Runs {
		rec.Runs = append(rec.Runs, runTally{Err: r.Err, Resumed: r.Resumed})
	}
	var runs []experiments.SweepRun
	if includeRuns {
		runs = full.Runs
	}
	return s.headStatus(rec, runs)
}

// headStatus builds a job's status from its record's head and, if wanted,
// its run list.
func (s *Server) headStatus(rec jobHead, runs []experiments.SweepRun) JobStatus {
	st := JobStatus{
		ID:         rec.ID,
		State:      rec.State,
		Error:      rec.Error,
		Budget:     rec.Budget,
		CreatedMS:  rec.CreatedMS,
		StartedMS:  rec.StartedMS,
		FinishedMS: rec.FinishedMS,
		Specs:      len(rec.Specs),
		Node:       rec.NodeID,
		NodeAddr:   s.resolveAddr(rec.NodeID),
	}
	if rec.State.Terminal() {
		st.Completed = len(rec.Runs)
		for _, r := range rec.Runs {
			if r.Err != "" {
				st.Failed++
			}
			if r.Resumed {
				st.Resumed++
			}
		}
		st.Runs = runs
	}
	return st
}

// Statuses snapshots every job of this node in memory and every finished
// job in the store, oldest first, each as Status answers for it. A live job
// a peer holds is its owner's to list: its record here does not say whether
// it is running. Each finished job costs a read of its record's head, so a
// listing's cost grows with the job history.
func (s *Server) Statuses() []JobStatus {
	ids := s.store.jobIDs()
	s.mu.Lock()
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]JobStatus, 0, len(ids))
	for i, id := range ids {
		if i > 0 && ids[i-1] == id {
			continue
		}
		if _, mine := s.Job(id); !mine {
			if st, ok := s.storedStatus(id, false); ok && st.State.Terminal() {
				out = append(out, st)
			}
			continue
		}
		if st, ok := s.Status(id, false); ok {
			out = append(out, st)
		}
	}
	// (CreatedMS, ID) is unique: IDs are.
	sort.Slice(out, func(a, b int) bool {
		if out[a].CreatedMS != out[b].CreatedMS {
			return out[a].CreatedMS < out[b].CreatedMS
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Cancel cancels a job: a queued job is removed from the queue, a running job
// has its sweep context cancelled (its completed prefix stays checkpointed).
// Cancelling a finished job is a no-op reporting its final state, on any
// node; a live job another node holds is CodeNotOwner.
func (s *Server) Cancel(id string) (JobStatus, *APIError) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		rec, err := s.store.loadHead(id)
		switch {
		case err != nil:
			return JobStatus{}, apiErrorf(CodeNotFound, "no job %s", id)
		case !rec.State.Terminal():
			return JobStatus{}, s.notOwnerError(id)
		}
		st, _ := s.storedStatus(id, false)
		return st, nil
	}
	j.mu.Lock()
	switch {
	case j.state == StateStolen:
		j.mu.Unlock()
		s.mu.Unlock()
		return JobStatus{}, s.notOwnerError(id)
	case j.state.Terminal():
		j.mu.Unlock()
		s.mu.Unlock()
	case j.state == StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.cancelled = true
		j.mu.Unlock()
		s.mu.Unlock()
		s.finishJob(j, nil, StateCancelled, apiErrorf(CodeCancelled, "cancelled while queued"))
	default: // running
		j.cancelled = true
		cancel := j.cancel
		j.mu.Unlock()
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	st, _ := s.Status(id, false)
	return st, nil
}

// Health summarises the server for GET /healthz.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := "ok"
	if s.draining {
		st = "draining"
	}
	return Health{
		Status:   st,
		Jobs:     len(s.jobs),
		Queued:   len(s.queue),
		Running:  s.running,
		UptimeMS: time.Since(s.start).Milliseconds(),
		Node:     s.opt.NodeID,
	}
}

// Fleet snapshots the membership registry for GET /fleetz. A node is alive
// when it heartbeated within three lease periods (heartbeats run every
// Lease/3, so that is ~9 missed beats).
func (s *Server) Fleet() FleetStatus {
	fs := FleetStatus{Self: s.opt.NodeID}
	cutoff := time.Now().Add(-3 * s.opt.Lease).UnixMilli()
	for _, n := range s.store.loadNodes() {
		fs.Nodes = append(fs.Nodes, FleetNode{
			Node:      n.NodeID,
			Addr:      n.Addr,
			PID:       n.PID,
			UpdatedMS: n.UpdatedMS,
			Alive:     n.UpdatedMS >= cutoff,
		})
	}
	return fs
}

// kick nudges the dispatcher without blocking.
func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// dispatch moves jobs from the queue into job slots until Shutdown.
func (s *Server) dispatch() {
	defer close(s.stopped)
	for {
		select {
		case <-s.wake:
		case <-s.quit:
			return
		}
		for {
			s.mu.Lock()
			if s.draining || s.running >= s.opt.MaxActive || len(s.queue) == 0 {
				s.mu.Unlock()
				break
			}
			j := s.queue[0]
			s.queue = s.queue[1:]
			s.running++
			s.wg.Add(1)
			s.mu.Unlock()
			go s.runJob(j)
		}
	}
}

// runJob executes one job's sweep with panic isolation: any panic escaping
// the sweep (or injected runner) fails this job with CodePanic and the
// server keeps serving.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.logf("serve: job %s panicked: %v", j.id, r)
			s.finishJob(j, nil, StateFailed, &APIError{
				Code:    string(sim.CodePanic),
				Message: fmt.Sprintf("job runner panicked: %v", r),
				Sim: &sim.WireError{
					Code:    sim.CodePanic,
					Message: fmt.Sprintf("%v", r),
					Detail:  string(debug.Stack()),
				},
			})
		}
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		s.kick()
	}()

	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	j.mu.Lock()
	if j.state == StateStolen || j.state.Terminal() {
		// The dispatcher popped the job just as a peer stole it (or a racing
		// cancel landed); nothing to run here.
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.notifyLocked()
	deadlineMS := j.budget.DeadlineMS
	budget := j.budget
	specs := j.specs
	node, epoch := j.node, j.epoch
	j.mu.Unlock()
	// Running is not written to job.json: a crash re-admits a queued job and
	// a running one alike, the owner answers status from memory, and the
	// event log records the transition. The sweep's first fenced checkpoint
	// flush is the job's next durable write.
	s.publish(j, func(ev *JobEvent) {
		ev.Type = "state"
		ev.State = StateRunning
	})

	if deadlineMS > 0 {
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithTimeout(ctx, time.Duration(deadlineMS)*time.Millisecond)
		defer dcancel()
	}

	// sharedKeys marks runs satisfied through the cross-job memo so the
	// event stream can label them.
	var sharedMu sync.Mutex
	sharedKeys := make(map[string]bool)

	runShared := func(ctx context.Context, spec experiments.RunSpec, ins experiments.Instrument) (*core.Results, error) {
		res, shared, err := s.cache.Do(ctx, spec, func(ctx context.Context, spec experiments.RunSpec) (*core.Results, error) {
			// The slot is taken inside the memo's run, so a caller waiting
			// on another job's run of the same spec holds none. A context
			// that ends first returns its error, which the memo never shares.
			select {
			case s.slots <- struct{}{}:
			case <-ctx.Done():
				return nil, experiments.WaitError(ctx, "slot-wait")
			}
			defer func() { <-s.slots }()
			return s.opt.simulate(ctx, spec, ins)
		})
		if shared {
			sharedMu.Lock()
			sharedKeys[experiments.SpecKey(spec)] = true
			sharedMu.Unlock()
		}
		return res, err
	}

	opt := experiments.SweepOptions{
		MaxCycles:  budget.MaxCycles,
		Timeout:    time.Duration(budget.RunTimeoutMS) * time.Millisecond,
		Workers:    s.opt.Workers,
		FlushEvery: s.opt.FlushEvery,
		Log:        s.opt.Log,
		Run:        runShared,
		OnRun: func(index int, run experiments.SweepRun) {
			s.onRun(j, index, run, sharedKeys, &sharedMu)
		},
		StatePath: s.store.checkpointPath(j.id),
		// Fence every checkpoint flush on the claim epoch: a stolen job's
		// old owner must not clobber the thief's resumed state. A refused
		// flush aborts the sweep with experiments.ErrStateConflict.
		WriteState: func(path string, data []byte) error {
			return s.store.writeJobFileFenced(j.id, node, epoch, path, data)
		},
	}
	runs, err := s.opt.runSweep(ctx, specs, opt)

	switch {
	case err == nil:
		s.finishJob(j, runs, StateDone, nil)
	case errors.Is(err, experiments.ErrStateConflict):
		// A peer stole the job mid-sweep (our lease lapsed); it resumes from
		// the last checkpoint flush we landed before losing the epoch.
		s.markStolen(j)
	case errors.Is(err, context.DeadlineExceeded):
		s.finishJob(j, runs, StateFailed, &APIError{
			Code:    string(sim.CodeTimeout),
			Message: fmt.Sprintf("job deadline (%dms) exceeded", deadlineMS),
			Sim:     &sim.WireError{Code: sim.CodeTimeout, Message: "job deadline exceeded"},
		})
	case errors.Is(err, context.Canceled):
		j.mu.Lock()
		byClient := j.cancelled
		j.mu.Unlock()
		if byClient {
			s.finishJob(j, runs, StateCancelled, apiErrorf(CodeCancelled, "cancelled by client"))
		} else {
			// Drain: the completed prefix is checkpointed; a restart
			// re-admits and resumes the job.
			s.parkJob(j, StateCheckpointed)
		}
	default:
		s.finishJob(j, runs, StateFailed, &APIError{
			Code:    "internal",
			Message: err.Error(),
		})
	}
}

// onRun streams one finished run as an event.
func (s *Server) onRun(j *job, index int, run experiments.SweepRun, sharedKeys map[string]bool, sharedMu *sync.Mutex) {
	sharedMu.Lock()
	cached := sharedKeys[run.Key]
	sharedMu.Unlock()
	re := &RunEvent{
		Index:   index,
		Spec:    run.Spec.String(),
		Err:     run.Err,
		ErrCode: run.ErrCode,
		Resumed: run.Resumed,
		Cached:  cached,
	}
	if run.Results != nil {
		re.Cycles = run.Results.Cycles
		re.Metrics = &run.Results.Metrics
	}
	j.mu.Lock()
	j.completed++
	if run.Err != "" {
		j.failed++
	}
	if run.Resumed {
		j.resumed++
	}
	j.mu.Unlock()
	s.publish(j, func(ev *JobEvent) {
		ev.Type = "run"
		ev.Run = re
	})
}

// finishJob moves a job to a terminal state, persists it, closes its stream
// and drops it from memory. The terminal record is persisted under the claim
// epoch *before* the in-memory commit: if a peer stole the job during the
// final flush the fenced write refuses, we mark the job stolen instead, and
// exactly one terminal record (the thief's, when it finishes) ever exists.
// From the drop on, the store answers for the job: its record for statuses
// and its event log for replays. Should the terminal record or an event
// append fail to land, the job is held in memory instead, answering from
// there, and the fleet loop retries the writes (retryFinish).
func (s *Server) finishJob(j *job, runs []experiments.SweepRun, state State, aerr *APIError) {
	j.mu.Lock()
	if j.state.Terminal() || j.state == StateStolen {
		j.mu.Unlock()
		return
	}
	finished := time.Now()
	rec := j.recordLocked()
	rec.State = state
	rec.Error = aerr
	rec.FinishedMS = msTime(finished)
	rec.Runs = runs
	j.mu.Unlock()
	err := s.save(j, rec)
	if errors.Is(err, errFenced) {
		return // withdrawn as stolen
	}
	if err != nil {
		s.logf("%v", err)
	}
	j.mu.Lock()
	if j.state.Terminal() || j.state == StateStolen {
		j.mu.Unlock()
		return
	}
	if err != nil {
		j.unsaved = &rec
	}
	j.finished = finished
	j.state = state
	j.err = aerr
	j.cancel = nil
	started := j.started
	close(j.done)
	j.notifyLocked()
	j.mu.Unlock()

	s.mu.Lock()
	if s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	s.mu.Unlock()
	if !started.IsZero() {
		s.observeJobDuration(finished.Sub(started))
	}
	s.publish(j, func(ev *JobEvent) {
		ev.Type = "state"
		ev.State = state
		ev.Error = aerr
	})
	j.broker.Close()
	s.logf("serve: job %s -> %s (%d runs)", j.id, state, len(runs))
	// Streams attached so far finish from the broker; later ones replay the
	// log, which now ends with the terminal event. If the record or the log
	// did not reach the store whole, the job stays in memory and answers
	// from there until retryFinish mends the store.
	j.mu.Lock()
	j.held = j.unsaved != nil || j.logGap
	held := j.held
	j.mu.Unlock()
	if !held {
		s.forget(j)
	}
}

// forget drops a finished job from memory: the store answers for it now.
func (s *Server) forget(j *job) {
	s.mu.Lock()
	if s.jobs[j.id] == j {
		delete(s.jobs, j.id)
	}
	s.mu.Unlock()
}

// retryFinish writes what a held job's finish could not: the event log,
// rewritten from the broker's history, and the terminal record. Once both
// are durable the job leaves memory. A peer that claimed the job meanwhile
// owns it, and the store answers for it too.
func (s *Server) retryFinish(j *job) {
	j.mu.Lock()
	held, rec, gap, epoch := j.held, j.unsaved, j.logGap, j.epoch
	j.mu.Unlock()
	if !held {
		return
	}
	if gap {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, ev := range j.broker.History() {
			if err := enc.Encode(ev); err != nil {
				s.logf("serve: job %s event log: %v", j.id, err)
				return
			}
		}
		err := s.store.writeJobFileFenced(j.id, s.opt.NodeID, epoch, s.store.eventsPath(j.id), buf.Bytes())
		if errors.Is(err, experiments.ErrStateConflict) {
			s.forget(j)
			return
		}
		if err != nil {
			s.logf("serve: job %s event log: %v", j.id, err)
			return
		}
	}
	if rec != nil {
		err := s.store.saveJobKeepLease(*rec, s.opt.Lease)
		if errors.Is(err, errFenced) {
			s.forget(j)
			return
		}
		if err != nil {
			s.logf("%v", err)
			return
		}
	}
	j.mu.Lock()
	j.held, j.unsaved, j.logGap = false, nil, false
	j.mu.Unlock()
	s.logf("serve: job %s finish persisted on retry", j.id)
	s.forget(j)
}

// markStolen withdraws a job whose lease a peer claimed: the durable record,
// checkpoint and event log now belong to the thief. The local twin becomes
// StateStolen (memory only — never persisted), its sweep is cancelled (all
// its writes are fenced off anyway), and its local stream closes after a
// final stolen event so watchers re-resolve the job to its new owner.
func (s *Server) markStolen(j *job) {
	s.mu.Lock()
	j.mu.Lock()
	if j.state.Terminal() || j.state == StateStolen {
		j.mu.Unlock()
		s.mu.Unlock()
		return
	}
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	if s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	j.state = StateStolen
	cancel := j.cancel
	j.cancel = nil
	j.notifyLocked()
	j.mu.Unlock()
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	// Publish to the local broker only: the durable event log is the new
	// owner's to append to.
	j.pubMu.Lock()
	j.mu.Lock()
	ev := j.nextEventLocked()
	j.mu.Unlock()
	ev.Type = "state"
	ev.State = StateStolen
	j.broker.Publish(ev)
	j.pubMu.Unlock()
	j.broker.Close()
	s.logf("serve: job %s stolen by a peer", j.id)
}

// parkJob records an interrupted (non-terminal) job so a restart resumes it.
// The event stream stays open — the job is not finished, merely paused. The
// park also releases the lease, so a peer (or the next process on this
// node) claims the job immediately instead of waiting out the expiry.
func (s *Server) parkJob(j *job, state State) {
	j.mu.Lock()
	if j.state.Terminal() || j.state == StateStolen {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.cancel = nil
	j.notifyLocked()
	rec := j.recordLocked()
	j.mu.Unlock()
	if err := s.store.releaseLease(rec); err != nil && !errors.Is(err, errFenced) {
		s.logf("%v", err)
	}
	s.publish(j, func(ev *JobEvent) {
		ev.Type = "state"
		ev.State = state
	})
	s.logf("serve: job %s parked as %s", j.id, state)
}

// Shutdown drains the server: admission stops immediately (Submit returns
// CodeDraining), queued jobs are parked as shed, and running jobs get until
// ctx (or DrainTimeout, whichever is earlier) to finish before their sweeps
// are cancelled and checkpointed. Shutdown returns once every job goroutine
// has exited; a subsequent New on the same StateDir resumes the parked jobs.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.stopped
		return nil
	}
	s.draining = true
	s.drainDeadline = time.Now().Add(s.opt.DrainTimeout)
	queued := s.queue
	s.queue = nil
	s.mu.Unlock()

	for _, j := range queued {
		s.parkJob(j, StateShed)
	}

	// Give running jobs the drain window, then cancel their sweeps; the
	// final checkpoint flush in RunSweep lands their completed prefixes.
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	timer := time.NewTimer(s.opt.DrainTimeout)
	defer timer.Stop()
	var err error
	select {
	case <-finished:
	case <-timer.C:
		err = fmt.Errorf("serve: drain timeout after %s; checkpointing in-flight jobs", s.opt.DrainTimeout)
		s.baseCut()
		<-finished
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCut()
		<-finished
	}
	s.baseCut()
	s.quitOnce.Do(func() { close(s.quit) })
	<-s.stopped
	<-s.fleetStopped
	return err
}

// persist writes the job's durable record, fenced on its claim epoch.
func (s *Server) persist(j *job) error {
	j.mu.Lock()
	rec := j.recordLocked()
	j.mu.Unlock()
	return s.save(j, rec)
}

// save writes rec, a snapshot of j, under j's fence; a refusal means a peer
// stole the job, which is withdrawn here.
func (s *Server) save(j *job, rec jobRecord) error {
	err := s.store.saveJobKeepLease(rec, s.opt.Lease)
	if errors.Is(err, errFenced) {
		s.markStolen(j)
	}
	return err
}

// publish stamps, logs and broadcasts one event on the job's stream. The
// job's publish lock is held across all three steps so events land in the log
// and on the stream in seq order even when publishers race; the broadcast is
// non-blocking, so the lock is only ever held for the file append.
func (s *Server) publish(j *job, fill func(*JobEvent)) {
	j.pubMu.Lock()
	defer j.pubMu.Unlock()
	j.mu.Lock()
	stolen := j.state == StateStolen
	ev := j.nextEventLocked()
	j.mu.Unlock()
	fill(&ev)
	if !stolen {
		// A stolen job's durable log belongs to its new owner; local
		// stragglers (a late onRun from the cancelled sweep) stay local.
		if err := s.store.appendEvent(j.id, ev); err != nil {
			s.logf("serve: job %s event log: %v", j.id, err)
			j.mu.Lock()
			j.logGap = true
			j.mu.Unlock()
		}
	}
	j.broker.Publish(ev)
}

// jobKey derives the dedup key: a digest over the canonical spec keys and the
// effective budget, so "the same work under the same limits" single-flights.
func jobKey(specs []experiments.RunSpec, b Budget) string {
	h := sha256.New()
	fmt.Fprintf(h, "budget:%d/%d/%d\n", b.MaxCycles, b.RunTimeoutMS, b.DeadlineMS)
	for _, spec := range specs {
		fmt.Fprintln(h, experiments.SpecKey(spec))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// newJobID returns a 16-hex-digit random ID.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: rand: %v", err)) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}
