package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mdacache/internal/experiments"
)

// jobRecord is the durable form of a job: everything needed to answer status
// queries and — for a non-terminal job — to re-admit and resume it after a
// restart. The resolved RunSpecs (not the client's request) are persisted so
// the resumed sweep derives exactly the same checkpoint keys as the
// interrupted one.
type jobRecord struct {
	ID     string                `json:"id"`
	Key    string                `json:"key"` // dedup key over specs+budget
	State  State                 `json:"state"`
	Error  *APIError             `json:"error,omitempty"`
	Budget Budget                `json:"budget"`
	Specs  []experiments.RunSpec `json:"specs"`

	CreatedMS  int64 `json:"created_ms"`
	StartedMS  int64 `json:"started_ms,omitempty"`
	FinishedMS int64 `json:"finished_ms,omitempty"`

	// Lease: the node that owns the job, the instant its ownership lapses,
	// and the fencing epoch that is bumped on every claim. Absent on records
	// written before every server became a fleet member; New claims those
	// like any other. See lease.go for the protocol.
	NodeID       string `json:"node_id,omitempty"`
	LeaseUntilMS int64  `json:"lease_until_ms,omitempty"`
	Epoch        uint64 `json:"epoch,omitempty"`

	// Runs holds the final per-run outcomes once the job is terminal.
	Runs []experiments.SweepRun `json:"runs,omitempty"`
}

// store owns the on-disk layout under the state directory:
//
//	<dir>/jobs/<id>/job.json        — the jobRecord, atomically rewritten
//	<dir>/jobs/<id>/checkpoint.json — the sweep checkpoint (RunSweep owns it)
//	<dir>/jobs/<id>/events.jsonl    — append-only event log (best-effort)
//	<dir>/jobs/<id>/claim.lock      — the lease flock and fence (lease.go)
//	<dir>/live/<id>.<key>           — live index: a link to each non-terminal job's claim.lock
//
// All job.json writes go through experiments.WriteFileAtomic with bounded
// retry: a transient write failure must not take down a job whose simulation
// state is fine.
type store struct {
	dir     string
	retries int
	backoff time.Duration
}

func newStore(dir string) (*store, error) {
	s := &store{dir: dir, retries: 3, backoff: 50 * time.Millisecond}
	for _, d := range []string{s.jobsDir(), s.liveDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("serve: state dir: %w", err)
		}
	}
	return s, nil
}

func (s *store) jobsDir() string          { return filepath.Join(s.dir, "jobs") }
func (s *store) jobDir(id string) string  { return filepath.Join(s.jobsDir(), id) }
func (s *store) jobPath(id string) string { return filepath.Join(s.jobDir(id), "job.json") }

// checkpointPath is handed to SweepOptions.StatePath; the sweep layer owns
// the file's lifecycle and atomicity.
func (s *store) checkpointPath(id string) string {
	return filepath.Join(s.jobDir(id), "checkpoint.json")
}

func (s *store) eventsPath(id string) string {
	return filepath.Join(s.jobDir(id), "events.jsonl")
}

// saveJob persists rec atomically, retrying transient failures with
// exponential backoff.
func (s *store) saveJob(rec jobRecord) error {
	if err := os.MkdirAll(s.jobDir(rec.ID), 0o755); err != nil {
		return fmt.Errorf("serve: job dir: %w", err)
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return fmt.Errorf("serve: encode job %s: %w", rec.ID, err)
	}
	backoff := s.backoff
	for attempt := 0; ; attempt++ {
		err = experiments.WriteFileAtomic(s.jobPath(rec.ID), data)
		if err == nil || attempt >= s.retries {
			break
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	if err != nil {
		return fmt.Errorf("serve: persist job %s: %w", rec.ID, err)
	}
	return nil
}

// The live index names every non-terminal job, with its dedup key, so the
// scans that run while serving — Submit's fleet-wide dedup and the steal loop
// — cost time in proportion to live jobs, not to the job history. An entry
// goes in before a new job's first record and comes out after its terminal
// one: a crash in between leaves a stale entry, which the scans skip, never a
// live job missing from the index. New rebuilds the index from the records
// it reads at startup.

type liveEntry struct{ id, key string }

func (s *store) liveDir() string { return filepath.Join(s.dir, "live") }

func (s *store) livePath(id, key string) string {
	return filepath.Join(s.liveDir(), id+"."+key)
}

// markLive indexes rec as live. The entry is a hard link to the job's
// claim.lock (created here if a record predates it), so indexing allocates no
// inode and dropping the entry frees none: on the job's hot path both cost a
// directory update, no more.
func (s *store) markLive(rec jobRecord) error {
	f, err := os.OpenFile(s.lockPath(rec.ID), os.O_CREATE|os.O_RDONLY, 0o644)
	if err != nil {
		return err
	}
	f.Close()
	err = os.Link(s.lockPath(rec.ID), s.livePath(rec.ID, rec.Key))
	if errors.Is(err, os.ErrExist) {
		return nil
	}
	return err
}

// unmarkLive drops rec's entry. Best-effort: a stale entry is only skipped.
func (s *store) unmarkLive(rec jobRecord) {
	os.Remove(s.livePath(rec.ID, rec.Key))
}

// liveJobs lists the live index.
func (s *store) liveJobs() []liveEntry {
	entries, err := os.ReadDir(s.liveDir())
	if err != nil {
		return nil
	}
	out := make([]liveEntry, 0, len(entries))
	for _, e := range entries {
		if id, key, ok := strings.Cut(e.Name(), "."); ok {
			out = append(out, liveEntry{id, key})
		}
	}
	return out
}

// reindex makes the live index agree with recs, every record in the store.
func (s *store) reindex(recs []jobRecord) error {
	for _, rec := range recs {
		if rec.State.Terminal() {
			s.unmarkLive(rec)
		} else if err := s.markLive(rec); err != nil {
			return fmt.Errorf("serve: live index: %w", err)
		}
	}
	return nil
}

// loadJobs reads every persisted job, oldest first (so re-admission preserves
// submission order). A job directory with a corrupt or missing job.json is
// skipped with a note rather than failing the whole daemon: one damaged job
// must not hold the rest of the state dir hostage.
func (s *store) loadJobs() (recs []jobRecord, skipped []string, err error) {
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("serve: scan state dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rec, rerr := readJobRecord(s.jobPath(e.Name()))
		if rerr != nil {
			skipped = append(skipped, e.Name())
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].CreatedMS != recs[j].CreatedMS {
			return recs[i].CreatedMS < recs[j].CreatedMS
		}
		return recs[i].ID < recs[j].ID
	})
	return recs, skipped, nil
}

// readJobRecord decodes one job.json. A missing file surfaces as
// os.ErrNotExist; a present-but-empty record is corruption.
func readJobRecord(path string) (jobRecord, error) {
	var rec jobRecord
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("serve: decode %s: %w", path, err)
	}
	if rec.ID == "" {
		return rec, fmt.Errorf("serve: %s: record has no id", path)
	}
	return rec, nil
}

// loadEvents replays a job's persisted event log (for re-admission and
// steals: the new owner continues the sequence instead of restarting it).
// Torn or corrupt lines — a crash mid-append — are skipped.
func (s *store) loadEvents(id string) []JobEvent {
	data, err := os.ReadFile(s.eventsPath(id))
	if err != nil {
		return nil
	}
	var evs []JobEvent
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			continue
		}
		evs = append(evs, ev)
	}
	return evs
}

// Membership registry: each fleet node heartbeats a small JSON file under
// <dir>/nodes/<id>.json naming its advertised address. Peers and clients use
// it to resolve a job's owning node to something dialable.

type nodeRecord struct {
	NodeID    string `json:"node_id"`
	Addr      string `json:"addr"`
	PID       int    `json:"pid"`
	UpdatedMS int64  `json:"updated_ms"`
}

func (s *store) nodesDir() string { return filepath.Join(s.dir, "nodes") }

func (s *store) saveNode(rec nodeRecord) error {
	if err := os.MkdirAll(s.nodesDir(), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return experiments.WriteFileAtomic(filepath.Join(s.nodesDir(), rec.NodeID+".json"), data)
}

// loadNodes reads every registered fleet node, sorted by ID.
func (s *store) loadNodes() []nodeRecord {
	entries, err := os.ReadDir(s.nodesDir())
	if err != nil {
		return nil
	}
	var recs []nodeRecord
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(s.nodesDir(), e.Name()))
		if err != nil {
			continue
		}
		var rec nodeRecord
		if json.Unmarshal(data, &rec) == nil && rec.NodeID != "" {
			recs = append(recs, rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].NodeID < recs[j].NodeID })
	return recs
}

// nodeAddr resolves a node ID to its advertised address ("" when unknown).
func (s *store) nodeAddr(id string) string {
	if id == "" {
		return ""
	}
	data, err := os.ReadFile(filepath.Join(s.nodesDir(), id+".json"))
	if err != nil {
		return ""
	}
	var rec nodeRecord
	if json.Unmarshal(data, &rec) != nil {
		return ""
	}
	return rec.Addr
}

// appendEvent appends one event to the job's NDJSON log. The log is
// observability (and the CI failure artifact), not state: append failures are
// reported to the caller for logging but never fail the job.
func (s *store) appendEvent(id string, ev JobEvent) error {
	f, err := os.OpenFile(s.eventsPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	return enc.Encode(ev)
}
