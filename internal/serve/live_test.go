package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"mdacache/internal/experiments"
)

// writeRecord writes rec as job.json exactly as the store lays it out, but
// without going through any lease or index code — the shape a state dir has
// when another version of the server wrote it.
func writeRecord(t *testing.T, dir string, rec jobRecord) {
	t.Helper()
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	jd := filepath.Join(dir, "jobs", rec.ID)
	if err := os.MkdirAll(jd, 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := experiments.WriteFileAtomic(filepath.Join(jd, "job.json"), data); err != nil {
		t.Fatalf("write record: %v", err)
	}
}

// TestUpgradeSingleNodeStateDir: a state dir written by the single-node
// server — records with no node_id or epoch, no fences, no live index —
// resumes under the fleet of one. The running job's partial checkpoint is
// resumed and its results equal an uninterrupted run; the terminal job stays
// queryable.
func TestUpgradeSingleNodeStateDir(t *testing.T) {
	dir := t.TempDir()
	var specs []experiments.RunSpec
	for _, n := range []int{16, 20, 24, 28} {
		sp, err := smallSpec(n, 0).Spec()
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		specs = append(specs, sp)
	}
	budget := Budget{RunTimeoutMS: (30 * time.Minute).Milliseconds()}
	sweepOpt := experiments.SweepOptions{Timeout: 30 * time.Minute, Workers: 2}
	golden, err := experiments.RunSweep(context.Background(), specs, sweepOpt)
	if err != nil {
		t.Fatalf("golden sweep: %v", err)
	}

	running := jobRecord{ID: "running", Key: jobKey(specs, budget), State: StateRunning,
		Budget: budget, Specs: specs, CreatedMS: 1, StartedMS: 2}
	writeRecord(t, dir, running)
	// The partial checkpoint: the first two runs, as the interrupted sweep
	// flushed them.
	partial := sweepOpt
	partial.StatePath = filepath.Join(dir, "jobs", running.ID, "checkpoint.json")
	if _, err := experiments.RunSweep(context.Background(), specs[:2], partial); err != nil {
		t.Fatalf("partial sweep: %v", err)
	}
	done := jobRecord{ID: "done", Key: jobKey(specs[:1], budget), State: StateDone,
		Budget: budget, Specs: specs[:1], CreatedMS: 3, StartedMS: 4, FinishedMS: 5,
		Runs: golden[:1]}
	writeRecord(t, dir, done)

	s, ts := testServer(t, Options{StateDir: dir, Workers: 2, CacheSpecs: -1})
	j, ok := s.Job(running.ID)
	if !ok {
		t.Fatal("running job not re-admitted")
	}
	j.mu.Lock()
	node, epoch := j.node, j.epoch
	j.mu.Unlock()
	if node != "local" || epoch != 1 {
		t.Fatalf("re-admitted job claimed as %s@%d, want local@1", node, epoch)
	}
	st := waitDone(t, ts, running.ID)
	if st.State != StateDone {
		t.Fatalf("resumed job: %s (err %v), want done", st.State, st.Error)
	}
	if st.Resumed != 2 {
		t.Fatalf("resumed job took %d runs from its checkpoint, want 2: %+v", st.Resumed, st)
	}
	if err := experiments.DiffRunResults(golden, st.Runs); err != nil {
		t.Fatalf("resumed results differ from uninterrupted run: %v", err)
	}

	var old JobStatus
	if code := doJSON(t, "GET", ts.URL+"/jobs/done?runs=1", nil, &old); code != http.StatusOK {
		t.Fatalf("terminal job: HTTP %d", code)
	}
	if old.State != StateDone || old.FinishedMS != 5 {
		t.Fatalf("terminal job: %+v", old)
	}
	if err := experiments.DiffRunResults(golden[:1], old.Runs); err != nil {
		t.Fatalf("terminal job's runs changed: %v", err)
	}
	if live := s.store.liveJobs(); len(live) != 0 {
		t.Fatalf("live index after every job finished: %v", live)
	}
}

// liveIDs lists the live index's job IDs, sorted (hex job IDs sort before
// the letter-named entries the tests plant).
func liveIDs(st *store) []string {
	var ids []string
	for _, e := range st.liveJobs() {
		ids = append(ids, e.id)
	}
	sort.Strings(ids)
	return ids
}

// TestLiveIndex pins the index that Submit's fleet-wide dedup and the steal
// loop read instead of the job history: only non-terminal jobs are in it,
// stale entries (a terminal job's, or one a crash left without a record) are
// skipped, a live job missing from it is invisible to the steal loop until
// the next startup, and dedup across nodes still single-flights.
func TestLiveIndex(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	defer close(release)
	a, tsA := testServer(t, Options{StateDir: dir, NodeID: "a", Lease: time.Hour,
		runSweep: blockingSweep(release)})

	// A job in flight is indexed; a finished one leaves the index.
	var held SubmitResponse
	doJSON(t, "POST", tsA.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0)}}, &held)
	var cancelled SubmitResponse
	doJSON(t, "POST", tsA.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(20, 0)}}, &cancelled)
	if code := doJSON(t, "DELETE", tsA.URL+"/jobs/"+cancelled.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	if got := liveIDs(a.store); len(got) != 1 || got[0] != held.ID {
		t.Fatalf("live index = %v, want only the in-flight job %s", got, held.ID)
	}

	// Cross-node dedup still single-flights: node b finds a's job through
	// the index.
	b, tsB := testServer(t, Options{StateDir: dir, NodeID: "b", Lease: 30 * time.Millisecond,
		runSweep: blockingSweep(release)})
	var dup SubmitResponse
	if code := doJSON(t, "POST", tsB.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0)}}, &dup); code != http.StatusOK || !dup.Deduped || dup.ID != held.ID {
		t.Fatalf("cross-node duplicate: HTTP %d %+v, want deduped onto %s", code, dup, held.ID)
	}

	// Stale entries: a terminal job's (its terminal write landed, the
	// removal did not) and one with no record (a crash between the index
	// write and the first record).
	stale := jobRecord{ID: "stale", Key: "kstale", State: StateDone, CreatedMS: 1,
		NodeID: "gone", Epoch: 1}
	writeRecord(t, dir, stale)
	if err := b.store.markLive(stale); err != nil {
		t.Fatalf("markLive: %v", err)
	}
	if err := os.WriteFile(b.store.livePath("ghost", "kghost"), nil, 0o644); err != nil {
		t.Fatalf("plant ghost entry: %v", err)
	}
	// A live job whose lease lapsed, but which is missing from the index.
	orphan := jobRecord{ID: "orphan", Key: "korphan", State: StateShed, CreatedMS: 2,
		NodeID: "gone", Epoch: 4, LeaseUntilMS: 1, Specs: []experiments.RunSpec{mustSpec(t, smallSpec(24, 0))}}
	writeRecord(t, dir, orphan)

	// Give node b's steal loop (ticking every 10ms) many passes.
	time.Sleep(300 * time.Millisecond)
	if _, ok := b.Job("orphan"); ok {
		t.Fatal("steal loop claimed a job the live index does not name: it read the job history")
	}
	if rec, err := b.store.loadJob("stale"); err != nil || rec.NodeID != "gone" || rec.Epoch != 1 {
		t.Fatalf("stale entry's terminal record disturbed: %+v, %v", rec, err)
	}
	if got := liveIDs(b.store); len(got) != 2 || got[0] != held.ID || got[1] != "ghost" {
		t.Fatalf("live index = %v, want the ghost entry skipped, the stale one pruned, %s kept", got, held.ID)
	}
	if _, ok := b.Job(held.ID); ok {
		t.Fatal("node b stole a job whose lease node a holds")
	}

	// Dedup skips the stale entries too: a submission whose key matches a
	// terminal job's entry is a new job, not a single-flight onto history.
	if err := b.store.markLive(stale); err != nil {
		t.Fatalf("markLive: %v", err)
	}
	if id, _, ok := b.dedupOnDiskLocked(stale.Key); ok {
		t.Fatalf("dedup matched the terminal job %s through a stale entry", id)
	}
	if _, _, ok := b.dedupOnDiskLocked("kghost"); ok {
		t.Fatal("dedup matched an entry with no record")
	}

	// Indexed, the orphan is the steal loop's to take.
	if err := b.store.markLive(orphan); err != nil {
		t.Fatalf("markLive: %v", err)
	}
	waitFor(t, func() bool { _, ok := b.Job("orphan"); return ok })
	if rec, err := b.store.loadJob("orphan"); err != nil || rec.NodeID != "b" || rec.Epoch != 5 {
		t.Fatalf("stolen orphan: %+v, %v, want b@5", rec, err)
	}
}

// TestFenceOutranksStaleRecord: a claim that wrote its fence but crashed
// before job.json still fences the previous owner, and the next claim bumps
// past the fence's epoch, not the record's.
func TestFenceOutranksStaleRecord(t *testing.T) {
	st, id := leaseStore(t)
	stale, err := st.claimJob(id, "a", time.Hour)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	err = st.withJobLock(id, func() error { return st.writeFence(id, fence{"b", 2}) })
	if err != nil {
		t.Fatalf("write fence: %v", err)
	}
	if err := st.writeJobFileFenced(id, stale.NodeID, stale.Epoch, st.checkpointPath(id), []byte("{}")); !errors.Is(err, experiments.ErrStateConflict) {
		t.Fatalf("write under a superseded epoch: %v, want ErrStateConflict", err)
	}
	expireLease(t, st, id)
	rec, err := st.claimJob(id, "c", time.Hour)
	if err != nil || rec.NodeID != "c" || rec.Epoch != 3 {
		t.Fatalf("claim after a half-written claim: %+v, %v, want c@3", rec, err)
	}
}
