package serve

import (
	"errors"
	"net/http"
	"os"
	"testing"
	"time"

	"mdacache/internal/experiments"
)

// leaseStore builds a store with one claimable queued job on disk.
func leaseStore(t *testing.T) (*store, string) {
	t.Helper()
	st, err := newStore(t.TempDir())
	if err != nil {
		t.Fatalf("newStore: %v", err)
	}
	rec := jobRecord{ID: "j1", Key: "k1", State: StateQueued, CreatedMS: 1}
	if err := st.saveJob(rec); err != nil {
		t.Fatalf("saveJob: %v", err)
	}
	return st, rec.ID
}

// expireLease force-lapses the job's lease on disk (a stand-in for waiting
// out the wall clock). It holds the job's claim lock like every store write
// does, so a concurrent server write cannot land between its load and save
// and put the old lease back.
func expireLease(t *testing.T, st *store, id string) {
	t.Helper()
	err := st.withJobLock(id, func() error {
		rec, err := st.loadJob(id)
		if err != nil {
			return err
		}
		rec.LeaseUntilMS = 1
		return st.saveJob(rec)
	})
	if err != nil {
		t.Fatalf("expire lease: %v", err)
	}
}

// TestLeaseClaimProtocol pins the claim state machine: first claim, held
// lease, same-node re-claim, expired-lease steal, terminal job.
func TestLeaseClaimProtocol(t *testing.T) {
	st, id := leaseStore(t)

	rec, err := st.claimJob(id, "a", time.Hour)
	if err != nil || rec.NodeID != "a" || rec.Epoch != 1 {
		t.Fatalf("first claim: %+v, %v", rec, err)
	}
	if _, err := st.claimJob(id, "b", time.Hour); !errors.Is(err, errLeaseHeld) {
		t.Fatalf("claim on live lease: %v, want errLeaseHeld", err)
	}
	// A restart under the same identity re-claims its own live lease and
	// bumps the epoch, fencing the previous incarnation's writes.
	rec, err = st.claimJob(id, "a", time.Hour)
	if err != nil || rec.Epoch != 2 {
		t.Fatalf("same-node re-claim: %+v, %v", rec, err)
	}

	expireLease(t, st, id)
	rec, err = st.claimJob(id, "b", time.Hour)
	if err != nil || rec.NodeID != "b" || rec.Epoch != 3 {
		t.Fatalf("steal of expired lease: %+v, %v", rec, err)
	}

	rec.State = StateDone
	if err := st.saveJob(rec); err != nil {
		t.Fatalf("saveJob: %v", err)
	}
	if _, err := st.claimJob(id, "c", time.Hour); !errors.Is(err, errJobTerminal) {
		t.Fatalf("claim on terminal job: %v, want errJobTerminal", err)
	}
}

// TestLeaseFencesLateWrites is the table-driven half of the steal guarantee:
// after a peer claims the job, every write path the expired owner can attempt
// — renewal, job.json updates, the sweep checkpoint, lease release — must be
// rejected by the epoch check, leaving the thief's state untouched.
func TestLeaseFencesLateWrites(t *testing.T) {
	cases := []struct {
		name string
		op   func(t *testing.T, st *store, id string, stale jobRecord) error
	}{
		{"renew", func(t *testing.T, st *store, id string, stale jobRecord) error {
			return st.renewJob(id, stale.NodeID, stale.Epoch, time.Hour)
		}},
		{"save job record", func(t *testing.T, st *store, id string, stale jobRecord) error {
			stale.State = StateRunning
			return st.saveJobFenced(stale)
		}},
		{"save keeping lease", func(t *testing.T, st *store, id string, stale jobRecord) error {
			stale.State = StateDone
			stale.FinishedMS = 42
			return st.saveJobKeepLease(stale, time.Hour)
		}},
		{"release lease", func(t *testing.T, st *store, id string, stale jobRecord) error {
			return st.releaseLease(stale)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, id := leaseStore(t)
			stale, err := st.claimJob(id, "a", time.Hour)
			if err != nil {
				t.Fatalf("claim: %v", err)
			}
			expireLease(t, st, id)
			if _, err := st.claimJob(id, "b", time.Hour); err != nil {
				t.Fatalf("steal: %v", err)
			}

			if err := c.op(t, st, id, stale); !errors.Is(err, errFenced) {
				t.Fatalf("late %s by expired owner: %v, want errFenced", c.name, err)
			}
			disk, err := st.loadJob(id)
			if err != nil {
				t.Fatalf("loadJob: %v", err)
			}
			if disk.NodeID != "b" || disk.Epoch != 2 || disk.State != StateQueued {
				t.Fatalf("thief's record disturbed by late %s: %+v", c.name, disk)
			}
		})
	}
}

// TestLeaseFencesLateCheckpoint: the expired owner's checkpoint flush is
// refused before it touches the file, and the refusal wraps
// experiments.ErrStateConflict so the sweep layer aborts instead of retrying.
func TestLeaseFencesLateCheckpoint(t *testing.T) {
	st, id := leaseStore(t)
	if _, err := st.claimJob(id, "a", time.Hour); err != nil {
		t.Fatalf("claim: %v", err)
	}
	expireLease(t, st, id)
	if _, err := st.claimJob(id, "b", time.Hour); err != nil {
		t.Fatalf("steal: %v", err)
	}

	path := st.checkpointPath(id)
	err := st.writeJobFileFenced(id, "a", 1, path, []byte(`{"stale":true}`))
	if !errors.Is(err, experiments.ErrStateConflict) {
		t.Fatalf("late checkpoint write: %v, want ErrStateConflict", err)
	}
	if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("fenced checkpoint write still landed bytes: %v", serr)
	}

	// The epoch holder's write goes through.
	if err := st.writeJobFileFenced(id, "b", 2, path, []byte(`{"ok":true}`)); err != nil {
		t.Fatalf("owner checkpoint write: %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != `{"ok":true}` {
		t.Fatalf("owner checkpoint content: %q, %v", data, err)
	}
}

// TestStealDuringFinalFlush drives the steal race through the server itself:
// a peer claims the job while its sweep is finishing, so the owner's terminal
// record is fenced off, the local job becomes stolen, and the disk never holds
// the loser's terminal record — exactly one terminal record can ever exist.
func TestStealDuringFinalFlush(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	// Lease of an hour: the fleet loop ticks every Lease/3, so neither
	// renewal nor stealing interferes with the manually-staged race.
	s, ts := testServer(t, Options{
		StateDir: dir, NodeID: "a", Advertise: "http://a", Lease: time.Hour,
		runSweep: blockingSweep(release),
	})

	var resp SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0)}}, &resp)
	waitFor(t, func() bool { return s.Health().Running == 1 })

	// The steal lands while the sweep is still in flight: epoch moves 1 -> 2.
	st2, err := newStore(dir)
	if err != nil {
		t.Fatalf("newStore: %v", err)
	}
	expireLease(t, st2, resp.ID)
	stolen, err := st2.claimJob(resp.ID, "b", time.Hour)
	if err != nil || stolen.Epoch != 2 {
		t.Fatalf("steal: %+v, %v", stolen, err)
	}

	// Now the sweep completes; finishJob's fenced terminal write must be
	// refused and the job withdrawn as stolen.
	close(release)
	waitFor(t, func() bool {
		st, ok := s.Status(resp.ID, false)
		return ok && st.State == StateStolen
	})

	st, _ := s.Status(resp.ID, false)
	if st.Node != "b" {
		t.Fatalf("stolen status names node %q, want the thief b", st.Node)
	}
	disk, err := st2.loadJob(resp.ID)
	if err != nil {
		t.Fatalf("loadJob: %v", err)
	}
	if disk.State.Terminal() || disk.NodeID != "b" || disk.Epoch != 2 {
		t.Fatalf("loser's terminal record reached disk: %+v", disk)
	}

	// The loser refuses to serve what it no longer owns: cancel and events
	// answer 409/not_owner pointing at the thief.
	var aerr APIError
	if code := doJSON(t, "DELETE", ts.URL+"/jobs/"+resp.ID, nil, &aerr); code != http.StatusConflict || aerr.Code != CodeNotOwner {
		t.Fatalf("cancel of stolen job: HTTP %d code %q, want 409 not_owner", code, aerr.Code)
	}
	if aerr.Node != "b" {
		t.Fatalf("not_owner names %q, want b", aerr.Node)
	}
}

// TestFleetReadmitSkipsHeldLeases: a restarting node must not re-admit jobs a
// live peer owns, but must pick up expired ones (bumping the epoch).
func TestFleetReadmitSkipsHeldLeases(t *testing.T) {
	dir := t.TempDir()
	st, err := newStore(dir)
	if err != nil {
		t.Fatalf("newStore: %v", err)
	}
	held := jobRecord{ID: "held", Key: "kh", State: StateQueued, CreatedMS: 1,
		NodeID: "peer", Epoch: 3, LeaseUntilMS: time.Now().Add(time.Hour).UnixMilli()}
	expired := jobRecord{ID: "expired", Key: "ke", State: StateCheckpointed, CreatedMS: 2,
		NodeID: "peer", Epoch: 5, LeaseUntilMS: 1,
		Specs: []experiments.RunSpec{mustSpec(t, smallSpec(16, 0))}}
	for _, rec := range []jobRecord{held, expired} {
		if err := st.saveJob(rec); err != nil {
			t.Fatalf("saveJob: %v", err)
		}
	}

	s, ts := testServer(t, Options{StateDir: dir, NodeID: "a", Advertise: "http://a", Lease: time.Hour})
	if _, ok := s.Job("held"); ok {
		t.Fatal("re-admitted a job whose lease a live peer holds")
	}
	j, ok := s.Job("expired")
	if !ok {
		t.Fatal("expired-lease job not re-admitted")
	}
	j.mu.Lock()
	node, epoch := j.node, j.epoch
	j.mu.Unlock()
	if node != "a" || epoch != 6 {
		t.Fatalf("re-admitted job claimed as %s@%d, want a@6", node, epoch)
	}

	// The held job is still visible through the fleet store — any node
	// answers status for any job.
	var held2 JobStatus
	if code := doJSON(t, "GET", ts.URL+"/jobs/held", nil, &held2); code != http.StatusOK {
		t.Fatalf("status of peer-held job: HTTP %d", code)
	}
	if held2.Node != "peer" || held2.State != StateQueued {
		t.Fatalf("peer-held status: %+v", held2)
	}
	if st := waitDone(t, ts, "expired"); st.State != StateDone {
		t.Fatalf("re-admitted job: %s (err %v)", st.State, st.Error)
	}
}

func mustSpec(t *testing.T, sr SpecRequest) experiments.RunSpec {
	t.Helper()
	sp, err := sr.Spec()
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	sp.Timeout = 30 * time.Minute
	return sp
}
