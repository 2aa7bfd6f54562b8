package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"mdacache/internal/experiments"
)

// Lease protocol. Every server is a fleet member — a lone daemon is a fleet
// of one named "local" — and every durable job carries three fencing fields
// in its job.json: the owning node, the wall-clock instant the ownership
// expires, and a monotonically increasing epoch. A node may write a job's
// state — job.json or the sweep checkpoint — only while the job's epoch
// equals the epoch it claimed under; any peer may claim (steal) a job whose
// lease has expired, bumping the epoch, which permanently fences the old
// owner out.
//
// Mutual exclusion between *live* processes comes from an exclusive flock on
// the job's claim.lock: every read-modify-write of the lease fields happens
// under it, so two nodes racing for an expired lease serialize and exactly
// one wins the epoch bump. flock is released by the kernel when the holder
// dies — a `kill -9` mid-claim cannot wedge the job — while the time-based
// lease covers the case the flock cannot: a node that is alive but stalled
// past its lease loses the compare on epoch, not on the lock. Safety rests
// on that compare alone, never on clocks: a skewed clock can only make a
// steal early or late, and either way the stale epoch is refused.
//
// The fence itself is claim.lock's contents: the holder's node and epoch, a
// few bytes rewritten in place by every claim (and by a job's first write)
// before job.json. A fenced write compares against it under the flock
// instead of re-reading and decoding job.json. job.json carries the same
// pair for status queries and for records written before the fence existed;
// a claim takes whichever of the two is newer, so a fence lost to a crash
// (it is not fsynced: job.json, written right after it, is) costs nothing.
//
// The protocol keeps resumed results bit-identical: the thief resumes from
// the victim's last *fenced* checkpoint flush, and every flush the victim
// attempts after the steal is rejected before it touches the file, so the
// checkpoint only ever contains whole runs recorded by the current epoch
// holder. Runs themselves are deterministic per spec, so which node
// simulated each one cannot show up in the results.

// errLeaseHeld reports a claim attempt on a job whose lease is live and held
// by another node. Not an infrastructure failure — the claimant just loses.
var errLeaseHeld = errors.New("serve: lease held by another node")

// errFenced reports that this node's lease epoch is stale: the job was
// stolen. Any pending local state for the job must be abandoned.
var errFenced = errors.New("serve: lease fenced (job stolen by another node)")

// errJobTerminal reports a claim attempt on a job that already finished.
var errJobTerminal = errors.New("serve: job is terminal")

// expired reports whether the record's lease has lapsed (or was never held /
// was explicitly released by a draining owner).
func (rec *jobRecord) leaseExpired(now time.Time) bool {
	return rec.NodeID == "" || rec.LeaseUntilMS <= now.UnixMilli()
}

func (s *store) lockPath(id string) string { return filepath.Join(s.jobDir(id), "claim.lock") }

// withJobLock runs fn while holding the job's exclusive claim lock. The lock
// file lives beside job.json; the kernel drops the flock if the holder dies.
func (s *store) withJobLock(id string, fn func() error) error {
	if err := os.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return fmt.Errorf("serve: job dir: %w", err)
	}
	f, err := os.OpenFile(s.lockPath(id), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("serve: claim lock: %w", err)
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("serve: claim lock: %w", err)
	}
	defer syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	return fn()
}

// fence names a job's lease holder: a node and the epoch of its claim.
type fence struct {
	Node  string `json:"node_id"`
	Epoch uint64 `json:"epoch"`
}

// readFence returns the holder recorded in claim.lock; ok is false when it
// records none (a job first written before fences existed, or a fence torn
// by a crash). Caller holds the job lock.
func (s *store) readFence(id string) (h fence, ok bool) {
	data, err := os.ReadFile(s.lockPath(id))
	if err != nil || json.Unmarshal(data, &h) != nil {
		return fence{}, false
	}
	return h, true
}

// writeFence records h in claim.lock, in place. Caller holds the job lock.
func (s *store) writeFence(id string, h fence) error {
	data, err := json.Marshal(h)
	if err != nil {
		return err
	}
	return os.WriteFile(s.lockPath(id), data, 0o644)
}

// holder reads the job's lease holder: the fence, else the pair in job.json.
// A job with neither reports os.ErrNotExist. Caller holds the job lock.
func (s *store) holder(id string) (fence, error) {
	if h, ok := s.readFence(id); ok {
		return h, nil
	}
	rec, err := s.loadJob(id)
	if err != nil {
		return fence{}, err
	}
	return fence{rec.NodeID, rec.Epoch}, nil
}

// fenced runs fn under the job lock iff h still holds the job; otherwise it
// returns errFenced and touches nothing.
func (s *store) fenced(id string, h fence, fn func() error) error {
	return s.withJobLock(id, func() error {
		disk, err := s.holder(id)
		if err != nil {
			return err
		}
		if disk != h {
			return errFenced
		}
		return fn()
	})
}

// loadJob reads one job's durable record, runs and all.
func (s *store) loadJob(id string) (jobRecord, error) {
	var rec jobRecord
	err := readRecord(s.jobPath(id), &rec, &rec)
	return rec, err
}

// claimJob takes ownership of the job for node: it succeeds when the job is
// unowned, its lease has expired, or node already owns it (a restart under
// the same identity). Every successful claim bumps the epoch, fencing any
// straggler that held the previous one. Returns the claimed record. A claim
// on a terminal job drops the job's stale live-index entry.
func (s *store) claimJob(id, node string, lease time.Duration) (jobRecord, error) {
	var rec jobRecord
	err := s.withJobLock(id, func() error {
		var err error
		rec, err = s.loadJob(id)
		if err != nil {
			return err
		}
		if h, ok := s.readFence(id); ok && h.Epoch > rec.Epoch {
			rec.NodeID, rec.Epoch = h.Node, h.Epoch
		}
		now := time.Now()
		switch {
		case rec.State.Terminal():
			s.unmarkLive(rec)
			return errJobTerminal
		case rec.NodeID != node && !rec.leaseExpired(now):
			return errLeaseHeld
		}
		rec.NodeID = node
		rec.Epoch++
		rec.LeaseUntilMS = now.Add(lease).UnixMilli()
		if err := s.writeFence(id, fence{node, rec.Epoch}); err != nil {
			return err
		}
		return s.saveJob(rec)
	})
	return rec, err
}

// renewJob extends node's lease on the job without changing the epoch. It
// fails with errFenced if the epoch moved past epoch (the job was stolen) —
// the caller must abandon the job.
func (s *store) renewJob(id, node string, epoch uint64, lease time.Duration) error {
	return s.fenced(id, fence{node, epoch}, func() error {
		rec, err := s.loadJob(id)
		if err != nil {
			return err
		}
		if rec.State.Terminal() {
			return nil // nothing left to protect
		}
		rec.LeaseUntilMS = time.Now().Add(lease).UnixMilli()
		return s.saveJob(rec)
	})
}

// saveJobFenced writes rec only while rec's node and epoch still hold the
// job; a stale owner gets errFenced and the file is untouched.
func (s *store) saveJobFenced(rec jobRecord) error {
	return s.fenced(rec.ID, fence{rec.NodeID, rec.Epoch}, func() error { return s.saveJob(rec) })
}

// writeJobFileFenced writes data to path (a file inside the job's directory,
// in practice the sweep checkpoint) iff node still holds epoch. The check and
// the write happen under the claim lock, so a steal cannot interleave between
// them: either the old owner's bytes land before the epoch bump (and the
// thief resumes from them) or they are refused. A refusal wraps
// experiments.ErrStateConflict so the sweep layer aborts instead of retrying.
func (s *store) writeJobFileFenced(id, node string, epoch uint64, path string, data []byte) error {
	err := s.fenced(id, fence{node, epoch}, func() error { return experiments.WriteFileAtomic(path, data) })
	if errors.Is(err, errFenced) {
		return fmt.Errorf("serve: job %s checkpoint write by %s@%d: %w", id, node, epoch, experiments.ErrStateConflict)
	}
	return err
}

// saveJobKeepLease is the write path for every job.json update the owner
// makes. It is fenced on rec's node and epoch, and it keeps the lease alive:
// the owner's own write is as good a sign of life as a renewal, so rec goes
// out with a fresh expiry. A brand-new job (no fence, no record) is created
// here — live-index entry first, then fence, then record — and a terminal
// record takes the job out of the live index.
func (s *store) saveJobKeepLease(rec jobRecord, lease time.Duration) error {
	return s.withJobLock(rec.ID, func() error {
		h := fence{rec.NodeID, rec.Epoch}
		disk, err := s.holder(rec.ID)
		switch {
		case errors.Is(err, os.ErrNotExist):
			if err := s.markLive(rec); err != nil {
				return err
			}
			if err := s.writeFence(rec.ID, h); err != nil {
				return err
			}
		case err != nil:
			return err
		case disk != h:
			return errFenced
		}
		rec.LeaseUntilMS = time.Now().Add(lease).UnixMilli()
		if err := s.saveJob(rec); err != nil {
			return err
		}
		if rec.State.Terminal() {
			s.unmarkLive(rec)
		}
		return nil
	})
}

// releaseLease marks rec's lease as immediately stealable (a graceful drain
// handing its parked jobs to the fleet) while keeping node/epoch provenance.
// Fenced like every other post-claim write.
func (s *store) releaseLease(rec jobRecord) error {
	rec.LeaseUntilMS = 0
	return s.saveJobFenced(rec)
}
