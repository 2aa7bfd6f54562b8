package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"mdacache/internal/core"
	"mdacache/internal/obs"
	"mdacache/internal/sim"
	"mdacache/internal/stats"
)

// SweepOptions configures a crash-isolated sweep over many RunSpecs.
type SweepOptions struct {
	// Timeout is the per-run wall-clock budget (0 = unlimited). Specs that
	// carry their own Timeout keep it.
	Timeout time.Duration

	// MaxCycles is the per-run simulated-cycle budget (0 = unlimited). Specs
	// that carry their own MaxCycles keep it.
	MaxCycles uint64

	// Workers bounds how many design points simulate concurrently.
	// 0 uses runtime.GOMAXPROCS(0); 1 reproduces the sequential behaviour.
	// Simulations are deterministic per spec (every machine owns its event
	// queue and fault RNG, seeded from the spec), so the returned slice is
	// bit-identical for any worker count — only wall-clock time changes.
	Workers int

	// StatePath names the JSON checkpoint file ("" disables checkpointing).
	// An existing file resumes the sweep: completed runs — successes and
	// failures alike — are reloaded instead of re-simulated. The checkpoint
	// is safe under concurrent workers: records are mutex-guarded and every
	// flush rewrites the file atomically, so a sweep killed mid-flight
	// resumes cleanly. A failed flush is retried four times, with backoff
	// doubling from 50ms, before it aborts the sweep.
	StatePath string

	// FlushEvery is how many finished runs may accumulate between checkpoint
	// flushes (<=1 flushes after every run). Larger values amortise the
	// atomic file rewrite across fast runs; a crash loses at most
	// FlushEvery-1 finished runs. The checkpoint is always flushed before
	// RunSweep returns, unless WriteState reported ErrStateConflict.
	FlushEvery int

	// Log receives per-run progress lines (nil = silent). Lines from
	// concurrent workers are serialized through a single goroutine, so they
	// never interleave mid-line regardless of Workers.
	Log io.Writer

	// Profile attaches a wall/sim-time phase breakdown to every simulated
	// run (SweepRun.Profile). Resumed runs carry no profile — nothing was
	// simulated. Profiles are wall-clock measurements and never part of
	// Results, so they cannot perturb determinism checks or checkpoints.
	Profile bool

	// OnRun, when non-nil, observes every finished run — simulated,
	// failed, and checkpoint-resumed alike — as it completes. index is the
	// run's position in specs. Calls are serialized (never concurrent) but
	// arrive in completion order, not spec order. The hook is how a
	// service streams per-run progress; it must not block for long, since
	// it briefly holds up the worker that finished the run.
	OnRun func(index int, run SweepRun)

	// Run, when non-nil, replaces RunWith as the executor of each run.
	// mdaserve shares runs across jobs here through a Memo; the checkpoint
	// and budget plumbing stay in RunSweep. The function must be safe for
	// concurrent calls and deterministic per spec.
	Run func(ctx context.Context, spec RunSpec, ins Instrument) (*core.Results, error)

	// WriteState, when non-nil, replaces WriteFileAtomic for every
	// checkpoint flush. A distributed service uses it to fence writes: the
	// hook may refuse the write (returning an error wrapping
	// ErrStateConflict) when the caller no longer owns the state file — a
	// slow old owner must not clobber the checkpoint of a job another node
	// has stolen. ErrStateConflict failures abort the sweep immediately:
	// they are permanent, so the flush is neither retried nor repeated at
	// the end of the sweep. Other failures are retried like any flush.
	WriteState func(path string, data []byte) error
}

// ErrStateConflict marks a WriteState refusal as permanent: the sweep's
// ownership of its state file was revoked (another node holds a newer lease
// epoch), so retrying the flush is pointless and the sweep aborts with the
// completed prefix intact — on the node that now owns the checkpoint.
var ErrStateConflict = errors.New("experiments: checkpoint write conflict (state ownership revoked)")

// workerCount resolves the effective pool size for n specs.
func (opt SweepOptions) workerCount(n int) int {
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SweepRun is the outcome of one design point in a sweep.
type SweepRun struct {
	Spec     RunSpec
	Key      string
	Results  *core.Results // nil when the run failed
	Err      string        // failure annotation ("" on success)
	ErrCode  sim.Code      `json:",omitempty"` // taxonomy code for Err ("" on success)
	Attempts int           // 1 if this process simulated the run, 0 if resumed
	Resumed  bool          // satisfied from the checkpoint file

	// Profile is the run's phase breakdown when SweepOptions.Profile was
	// set (nil otherwise, and for resumed runs). Excluded from the
	// checkpoint and from DiffRuns: wall-clock time is not deterministic.
	Profile *obs.RunProfile `json:"-"`
}

// OK reports whether the run produced results.
func (r SweepRun) OK() bool { return r.Err == "" }

// sweepLogger serializes progress lines from concurrent workers onto one
// io.Writer. A nil sweepLogger is silent.
type sweepLogger struct {
	lines chan string
	done  chan struct{}
}

func newSweepLogger(w io.Writer) *sweepLogger {
	if w == nil {
		return nil
	}
	l := &sweepLogger{lines: make(chan string, 64), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		for line := range l.lines {
			fmt.Fprintln(w, line)
		}
	}()
	return l
}

func (l *sweepLogger) logf(format string, args ...interface{}) {
	if l == nil {
		return
	}
	l.lines <- fmt.Sprintf(format, args...)
}

// close drains the queue and stops the goroutine; no logf may follow.
func (l *sweepLogger) close() {
	if l == nil {
		return
	}
	close(l.lines)
	<-l.done
}

// RunSweep executes every spec under crash isolation: a panicking, deadlocked
// or otherwise failing design point is annotated in its SweepRun and the
// sweep moves on, so one broken configuration cannot cost the results of the
// other N-1. Design points fan out across SweepOptions.Workers goroutines;
// the returned slice always has one entry per spec, in spec order, regardless
// of completion order, and is bit-identical for any worker count.
//
// The error return is reserved for infrastructure problems — a corrupt
// checkpoint file, an unwritable state path, or ctx cancelled mid-sweep (the
// completed prefix is still returned alongside ctx.Err()). Per-run failures
// never surface there.
func RunSweep(ctx context.Context, specs []RunSpec, opt SweepOptions) ([]SweepRun, error) {
	log := newSweepLogger(opt.Log)
	defer log.close()

	var ckpt *Checkpoint
	if opt.StatePath != "" {
		var err error
		ckpt, err = LoadCheckpoint(opt.StatePath)
		if err != nil {
			return nil, err
		}
		ckpt.writeFile = opt.WriteState
		if ckpt.Len() > 0 {
			log.logf("sweep: resuming from %s (%d finished runs)", opt.StatePath, ckpt.Len())
		}
	}
	flushEvery := opt.FlushEvery
	if flushEvery < 1 {
		flushEvery = 1
	}

	// emit serializes OnRun calls from concurrent workers.
	var onRunMu sync.Mutex
	emit := func(i int, run SweepRun) {
		if opt.OnRun == nil {
			return
		}
		onRunMu.Lock()
		opt.OnRun(i, run)
		onRunMu.Unlock()
	}
	runFn := opt.Run
	if runFn == nil {
		runFn = RunWith
	}

	runs := make([]SweepRun, len(specs))
	done := make([]bool, len(specs))
	var pending []int // indices that still need simulation, in spec order
	for i, spec := range specs {
		if spec.Timeout == 0 {
			spec.Timeout = opt.Timeout
		}
		if spec.MaxCycles == 0 {
			spec.MaxCycles = opt.MaxCycles
		}
		run := SweepRun{Spec: spec, Key: SpecKey(spec)}
		if ckpt != nil {
			if r, ok := ckpt.Results(run.Key); ok {
				run.Results, run.Resumed = r, true
				log.logf("sweep: %v resumed from checkpoint", spec)
				runs[i], done[i] = run, true
				emit(i, run)
				continue
			}
			if msg, code, ok := ckpt.Failed(run.Key); ok {
				run.Err, run.ErrCode, run.Resumed = msg, code, true
				log.logf("sweep: %v resumed from checkpoint (failed: %s)", spec, msg)
				runs[i], done[i] = run, true
				emit(i, run)
				continue
			}
		}
		runs[i] = run
		pending = append(pending, i)
	}

	// sctx stops the pool early on an infrastructure failure; per-run
	// failures never cancel it.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errMu    sync.Mutex
		infraErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if infraErr == nil {
			infraErr = err
		}
		errMu.Unlock()
		cancel()
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := opt.workerCount(len(pending)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				run := runs[i]
				spec := run.Spec
				run.Attempts = 1
				log.logf("sweep: running %v ...", spec)
				var ins Instrument
				if opt.Profile {
					ins.Profile = &obs.RunProfile{Name: spec.String()}
				}
				r, err := runFn(sctx, spec, ins)
				if err == nil {
					run.Results, run.Profile = r, ins.Profile
				} else {
					run.Err, run.ErrCode = err.Error(), sim.CodeOf(err)
					log.logf("sweep: %v FAILED: %s", spec, run.Err)
				}
				// Memoise the outcome — except wall-clock timeouts, which
				// depend on host speed, not the simulation: replaying a
				// stale timeout after a cancel/resume would make the
				// resumed sweep diverge from an uninterrupted one. A
				// timed-out run stays unrecorded so resume re-simulates it.
				if ckpt != nil && sctx.Err() == nil && !errors.Is(err, sim.ErrTimeout) {
					ckpt.RecordBuffered(run.Key, run.Results, run.Err, run.ErrCode)
					if ckpt.Dirty() >= flushEvery {
						if err := flushWithRetry(sctx, ckpt); err != nil {
							setErr(err)
						}
					}
				}
				runs[i], done[i] = run, true
				emit(i, run)
				if sctx.Err() != nil {
					return
				}
			}
		}()
	}
feed:
	for _, i := range pending {
		select {
		case work <- i:
		case <-sctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()

	errMu.Lock()
	err := infraErr
	errMu.Unlock()
	if ckpt != nil && !errors.Is(err, ErrStateConflict) {
		// The final flush runs even when the sweep was cancelled: whatever
		// completed before the cancel must land on disk so the job resumes
		// instead of restarting. ctx is deliberately not consulted here. A
		// revoked state file is left to its new owner.
		if ferr := flushWithRetry(context.Background(), ckpt); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		// Return the contiguous completed prefix, mirroring the sequential
		// semantics: everything before the first unfinished spec.
		n := 0
		for n < len(done) && done[n] {
			n++
		}
		return runs[:n], err
	}
	return runs, nil
}

// Checkpoint flush failures are often transient (ENOSPC races, NFS hiccups,
// scanners holding the file), and a long-running service should not lose a
// job to one, so a failed flush is retried flushRetries times with
// exponential backoff from flushBackoff before it aborts the sweep.
const (
	flushRetries = 4
	flushBackoff = 50 * time.Millisecond
)

// flushWithRetry flushes the checkpoint, retrying failures other than
// ErrStateConflict. ctx bounds the waiting: a cancelled sweep stops retrying
// immediately so cancellation stays prompt (RunSweep's final flush passes an
// independent context so the completed prefix still lands on disk after a
// cancel).
func flushWithRetry(ctx context.Context, ckpt *Checkpoint) error {
	backoff := flushBackoff
	for attempt := 0; ; attempt++ {
		err := ckpt.Flush()
		if err == nil || attempt >= flushRetries || errors.Is(err, ErrStateConflict) {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// SweepTable renders sweep outcomes — including failures — as a table.
func SweepTable(runs []SweepRun) *stats.Table {
	t := stats.NewTable("Sweep results", "spec", "status", "cycles", "attempts")
	for _, r := range runs {
		status := "ok"
		if r.Resumed {
			status = "resumed"
		}
		cycles := interface{}("-")
		if r.OK() {
			cycles = r.Results.Cycles
		} else {
			status = "FAILED: " + r.Err
		}
		t.AddRow(r.Spec.String(), status, cycles, r.Attempts)
	}
	return t
}
