package serve

import (
	"errors"
	"os"
	"time"
)

// fleetLoop is the per-node fleet driver, ticking every Lease/3:
//
//  1. heartbeat — re-register this node's address in the shared membership
//     directory so peers and clients can resolve it;
//  2. renew — extend the lease on every job this node actively owns
//     (queued or running); a renewal refused with errFenced means a peer
//     stole the job and the local copy is withdrawn;
//  3. steal — claim expired leases from the shared store while this node
//     has idle capacity, re-admitting each stolen job to resume from its
//     checkpoint.
//
// The tick divides the lease by three so an owner must miss two consecutive
// renewals (scheduler stall, crash) before any peer sees an expired lease.
func (s *Server) fleetLoop() {
	defer close(s.fleetStopped)
	tick := s.opt.Lease / 3
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	s.heartbeat()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
		}
		s.heartbeat()
		s.renewOwned()
		s.stealExpired()
	}
}

func (s *Server) heartbeat() {
	err := s.store.saveNode(nodeRecord{
		NodeID:    s.opt.NodeID,
		Addr:      s.opt.Advertise,
		PID:       os.Getpid(),
		UpdatedMS: time.Now().UnixMilli(),
	})
	if err != nil {
		s.logf("serve: heartbeat: %v", err)
	}
}

// renewOwned extends the lease on every job this node is actively working
// (queued or running). Parked and terminal jobs hold no lease worth renewing;
// a fenced renewal means the job was stolen while we stalled.
func (s *Server) renewOwned() {
	s.mu.Lock()
	owned := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		owned = append(owned, j)
	}
	s.mu.Unlock()
	for _, j := range owned {
		j.mu.Lock()
		state, epoch := j.state, j.epoch
		j.mu.Unlock()
		if state != StateQueued && state != StateRunning {
			continue
		}
		err := s.store.renewJob(j.id, s.opt.NodeID, epoch, s.opt.Lease)
		switch {
		case err == nil:
		case errors.Is(err, errFenced):
			s.markStolen(j)
		case errors.Is(err, os.ErrNotExist):
			// Record vanished (operator cleanup); nothing to renew.
		default:
			s.logf("serve: renew job %s: %v", j.id, err)
		}
	}
}

// stealExpired scans the live index for jobs whose lease has lapsed and
// claims them while this node has idle capacity. The claim bumps the epoch
// (fencing the previous owner); the stolen job then resumes from its
// checkpoint exactly like a restart-resume — which is why the handoff stays
// bit-identical. Only live jobs are read, so the scan's cost does not grow
// with the job history. An entry whose record is missing or terminal (left
// by a crash between index and record writes) is skipped; a terminal one is
// also dropped.
func (s *Server) stealExpired() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	capacity := s.opt.MaxActive - (s.running + len(s.queue))
	local := make(map[string]State, len(s.jobs))
	for id, j := range s.jobs {
		j.mu.Lock()
		local[id] = j.state
		j.mu.Unlock()
	}
	s.mu.Unlock()
	if capacity <= 0 {
		return
	}

	now := time.Now()
	for _, e := range s.store.liveJobs() {
		if capacity <= 0 {
			return
		}
		if st, ok := local[e.id]; ok && st != StateStolen {
			continue // already ours (the renewal loop keeps it alive)
		}
		rec, err := s.store.loadJob(e.id)
		if err != nil {
			continue
		}
		if rec.State.Terminal() {
			s.store.unmarkLive(rec)
			continue
		}
		if !rec.leaseExpired(now) {
			continue
		}
		claimed, cerr := s.store.claimJob(rec.ID, s.opt.NodeID, s.opt.Lease)
		switch {
		case errors.Is(cerr, errLeaseHeld) || errors.Is(cerr, errJobTerminal):
			continue // a peer beat us to it, or it finished after our scan
		case cerr != nil:
			s.logf("serve: claim job %s: %v", rec.ID, cerr)
			continue
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return
		}
		s.readmitLocked(claimed, "stole")
		s.mu.Unlock()
		capacity--
		s.kick()
	}
}
