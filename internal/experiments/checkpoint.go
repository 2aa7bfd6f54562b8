package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"

	"mdacache/internal/core"
	"mdacache/internal/sim"
)

// SpecKey renders a RunSpec into the stable string used to identify its run
// in a checkpoint file and in a Memo. Two specs share a key exactly when
// every field is equal. The key names each non-zero field,
// "{Bench:sgemm N:16 Design:1P2L LLCBytes:1048576 Scale:16 Tech:reram}", so
// it stays short and a field added later with a zero default leaves
// existing keys valid.
// (RunSpec.String is no key: it leaves out fields such as Tech and Scale.)
func SpecKey(spec RunSpec) string {
	v := reflect.ValueOf(spec)
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.IsZero() {
			if b.Len() > 1 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:%v", v.Type().Field(i).Name, f.Interface())
		}
	}
	b.WriteByte('}')
	return b.String()
}

// CheckpointError is the typed error for every checkpoint failure: an
// unreadable state file, corrupt or truncated JSON, a version mismatch, or a
// failed atomic rewrite. Callers distinguish "no usable checkpoint" from
// simulation failures with errors.As.
type CheckpointError struct {
	Path string // state file involved ("" when unknown)
	Op   string // "load", "decode", "version", "flush"
	Err  error  // underlying cause
}

func (e *CheckpointError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("experiments: checkpoint %s: %v", e.Op, e.Err)
	}
	return fmt.Sprintf("experiments: checkpoint %s %s: %v", e.Op, e.Path, e.Err)
}

func (e *CheckpointError) Unwrap() error { return e.Err }

func ckptErr(path, op string, err error) *CheckpointError {
	return &CheckpointError{Path: path, Op: op, Err: err}
}

// checkpointEntry is one finished run in the state file: either Results
// (success) or Err (the run failed and the failure is being memoised).
// Code classifies Err under the sim wire taxonomy; files written before the
// field existed decode with an empty code, which readers treat as unknown.
type checkpointEntry struct {
	Key     string        `json:"key"`
	Err     string        `json:"err,omitempty"`
	Code    sim.Code      `json:"code,omitempty"`
	Results *core.Results `json:"results,omitempty"`
}

type checkpointFile struct {
	Version int               `json:"version"`
	Entries []checkpointEntry `json:"entries"`
}

const checkpointVersion = 1

// Checkpoint persists per-run results of a sweep to a JSON state file so an
// interrupted sweep resumes from where it stopped instead of re-simulating
// completed design points. Every flush rewrites the file atomically
// (temp file + rename), so a crash mid-write never corrupts existing state.
// The file is compact JSON; indented files written by earlier versions load
// the same. Each entry is encoded once, at its first flush, and later
// flushes join the stored encodings, so a flush costs the new entries'
// encoding plus a copy rather than a re-encoding of every run.
//
// A Checkpoint is safe for concurrent use: parallel sweep workers record
// finished runs from many goroutines (see SweepOptions.Workers).
type Checkpoint struct {
	mu      sync.Mutex
	path    string
	entries map[string]checkpointEntry
	keys    []string          // entry keys in the order they were first added
	enc     map[string][]byte // compact encoding of entries[key], from its first flush
	dirty   int               // entries recorded since the last flush

	// writeFile replaces WriteFileAtomic for flushes when non-nil
	// (SweepOptions.WriteState: fenced writes in a distributed service).
	writeFile func(path string, data []byte) error
}

// LoadCheckpoint opens (or initialises) the state file at path. A missing
// file yields an empty checkpoint; a malformed one is a *CheckpointError
// rather than silently discarded state.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	c := &Checkpoint{path: path, entries: make(map[string]checkpointEntry), enc: make(map[string][]byte)}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, ckptErr(path, "load", err)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, ckptErr(path, "decode", err)
	}
	if f.Version != checkpointVersion {
		return nil, ckptErr(path, "version",
			fmt.Errorf("state file has version %d, want %d", f.Version, checkpointVersion))
	}
	for _, e := range f.Entries {
		if e.Key == "" {
			return nil, ckptErr(path, "decode", errors.New("entry with empty key"))
		}
		if e.Err == "" && e.Results == nil {
			return nil, ckptErr(path, "decode",
				fmt.Errorf("entry %q has neither results nor an error", e.Key))
		}
		c.put(e)
	}
	return c, nil
}

// Len reports how many finished runs the checkpoint holds.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Results returns the stored results for key, if the run completed
// successfully.
func (c *Checkpoint) Results(key string) (*core.Results, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.Err != "" {
		return nil, false
	}
	return e.Results, true
}

// Failed returns the stored failure annotation and taxonomy code for key, if
// the run completed by failing. Only deterministic failures are memoised
// (RunSweep never records wall-clock timeouts), so re-running a failed design
// point reproduces the failure; delete the state file to force a retry.
func (c *Checkpoint) Failed(key string) (msg string, code sim.Code, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[key]
	if !found || e.Err == "" {
		return "", "", false
	}
	return e.Err, e.Code, true
}

// Record stores one finished run (results on success, errMsg/code on failure)
// and rewrites the state file atomically.
func (c *Checkpoint) Record(key string, r *core.Results, errMsg string, code sim.Code) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.record(key, r, errMsg, code)
	return c.flushLocked()
}

// RecordBuffered stores one finished run without flushing to disk. Pair it
// with Flush for periodic persistence: a parallel sweep records every run but
// rewrites the (growing) state file only every FlushEvery runs, keeping the
// checkpoint cost sublinear while still bounding how much a crash can lose.
func (c *Checkpoint) RecordBuffered(key string, r *core.Results, errMsg string, code sim.Code) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.record(key, r, errMsg, code)
}

// Dirty reports how many recorded runs have not yet been flushed.
func (c *Checkpoint) Dirty() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dirty
}

// Flush rewrites the state file atomically if any buffered records are
// pending. Flushing a clean checkpoint is a no-op.
func (c *Checkpoint) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dirty == 0 {
		return nil
	}
	return c.flushLocked()
}

func (c *Checkpoint) record(key string, r *core.Results, errMsg string, code sim.Code) {
	c.put(checkpointEntry{Key: key, Err: errMsg, Code: code, Results: r})
	c.dirty++
}

// put stores e, replacing (and forgetting the encoding of) any entry under
// its key. Caller holds c.mu or owns c.
func (c *Checkpoint) put(e checkpointEntry) {
	if _, ok := c.entries[e.Key]; ok {
		delete(c.enc, e.Key)
	} else {
		c.keys = append(c.keys, e.Key)
	}
	c.entries[e.Key] = e
}

// flushLocked writes the state file: a checkpointFile with the entries in
// the order they were added, each in its stored encoding.
func (c *Checkpoint) flushLocked() error {
	size := 64
	for _, key := range c.keys {
		enc, ok := c.enc[key]
		if !ok {
			var err error
			if enc, err = json.Marshal(c.entries[key]); err != nil {
				return ckptErr(c.path, "flush", err)
			}
			c.enc[key] = enc
		}
		size += len(enc) + 1
	}
	data := make([]byte, 0, size)
	data = fmt.Appendf(data, `{"version":%d,"entries":[`, checkpointVersion)
	for i, key := range c.keys {
		if i > 0 {
			data = append(data, ',')
		}
		data = append(data, c.enc[key]...)
	}
	data = append(data, "]}"...)
	write := c.writeFile
	if write == nil {
		write = WriteFileAtomic
	}
	if err := write(c.path, data); err != nil {
		return ckptErr(c.path, "flush", err)
	}
	c.dirty = 0
	return nil
}

// WriteFileAtomic writes data to path with full crash durability: the bytes
// land in a temp file in the same directory, are fsynced, renamed over path,
// and then the containing directory is fsynced so the rename itself survives
// a crash. A reader therefore sees either the old contents or the new, never
// a torn file — and after WriteFileAtomic returns, never the old one again,
// even if the machine dies immediately after.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	// Sync file data before the rename: rename-before-data-reaches-disk is
	// exactly the window where a crash "immediately after flush" loses the
	// checkpoint on journaled filesystems.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Filesystems
// that refuse to fsync directories (some network and FUSE mounts) report
// EINVAL/ENOTSUP; those are ignored — the rename is still atomic, durability
// is simply the best the mount offers.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if isSyncUnsupported(err) {
			return nil
		}
		return err
	}
	return nil
}

func isSyncUnsupported(err error) bool {
	return errors.Is(err, errors.ErrUnsupported) ||
		errors.Is(err, syscall.EINVAL) ||
		errors.Is(err, syscall.ENOTSUP)
}
