// Package obs is the simulator's observability layer: a metrics registry
// (counters, gauges, log2-bucket histograms), an event tracer emitting JSONL
// or Chrome trace_event streams viewable in Perfetto, and per-run profiles.
//
// Design constraints, in order:
//
//  1. Zero allocation on the hot path. Counters and gauges alias storage the
//     components already own (a *uint64 registered once at build time), so an
//     increment stays a plain add; histograms bucket by bits.Len64 into a
//     fixed array. Tracing, when off, costs one nil check per call site.
//  2. Determinism. A Registry is per-Machine state (never package-level), all
//     values derive from simulated events only, and Snapshot produces a
//     JSON-round-trippable value that reflect.DeepEqual can compare across
//     runs — the determinism harness diffs snapshots to prove instrumentation
//     is worker-count-invariant.
//  3. The legacy stat structs (core.LevelStats, mem.Stats) remain views: the
//     registry reads the same storage, so both report identical numbers.
package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// names interns registered metric names process-wide. Components build
// names by concatenation ("l1." + "hits"), so without interning every
// machine's registry — and every Snapshot kept in a Results — would carry
// its own copy of each name. The set is bounded by the metric schema, not
// by the number of runs: only registration adds to it.
var names struct {
	sync.RWMutex
	m map[string]string
}

// internName returns the canonical copy of name, adding name if new.
func internName(name string) string {
	names.RLock()
	c, ok := names.m[name]
	names.RUnlock()
	if ok {
		return c
	}
	names.Lock()
	defer names.Unlock()
	if c, ok := names.m[name]; ok {
		return c
	}
	if names.m == nil {
		names.m = make(map[string]string)
	}
	name = strings.Clone(name) // never pin a larger buffer the name slices
	names.m[name] = name
	return name
}

// Registry names metric storage owned by simulator components. It is built
// once per machine at construction time; reads happen only at Snapshot.
// The zero value is unusable; use NewRegistry. All methods are nil-safe so
// components built outside a Machine (unit tests) skip registration.
type Registry struct {
	counters map[string]*uint64
	floats   map[string]*float64
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*uint64),
		floats:   make(map[string]*float64),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// check panics on duplicate or empty names: metric names are a schema, and a
// collision means two components silently share storage. It returns the
// interned name, which the registry stores in place of name.
func (r *Registry) check(name string) string {
	if name == "" {
		panic("obs: empty metric name")
	}
	if _, ok := r.counters[name]; ok {
		panic("obs: duplicate metric " + name)
	}
	if _, ok := r.floats[name]; ok {
		panic("obs: duplicate metric " + name)
	}
	if _, ok := r.gauges[name]; ok {
		panic("obs: duplicate metric " + name)
	}
	if _, ok := r.hists[name]; ok {
		panic("obs: duplicate metric " + name)
	}
	return internName(name)
}

// Counter registers p as the storage of a monotonically increasing metric.
// The caller keeps incrementing its own field; the registry only reads it.
func (r *Registry) Counter(name string, p *uint64) {
	if r == nil {
		return
	}
	name = r.check(name)
	r.counters[name] = p
}

// Float registers p as the storage of a float-valued metric (energy tallies).
func (r *Registry) Float(name string, p *float64) {
	if r == nil {
		return
	}
	name = r.check(name)
	r.floats[name] = p
}

// Gauge registers and returns a new gauge (a value that can move both ways,
// e.g. a high-water mark). Returns nil on a nil registry; Gauge methods are
// nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	name = r.check(name)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram registers and returns a new log2-bucket histogram. Returns nil on
// a nil registry; Histogram methods are nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	name = r.check(name)
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// Gauge is a settable value. Not concurrency-safe: a gauge belongs to one
// machine, which is single-goroutine by construction.
type Gauge struct{ v int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
}

// SetMax stores v if it exceeds the current value (high-water mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	if v > g.v {
		g.v = v
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets is bits.Len64's range: bucket 0 holds v==0, bucket i (i>0)
// holds v in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram counts observations in fixed log2 buckets — no allocation, no
// configuration, bounded error (one binary order of magnitude).
type Histogram struct {
	count, sum uint64
	min, max   uint64
	buckets    [histBuckets]uint64
}

// Observe records v. Nil-safe so uninstrumented components skip it.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the arithmetic mean of observations, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// HistBucket is one non-empty log2 bucket: Log2 == bits.Len64(v) for every
// value v counted in N (0 means v == 0).
type HistBucket struct {
	Log2 int    `json:"log2"`
	N    uint64 `json:"n"`
}

// HistSnapshot is the serializable state of a Histogram. Min/Max are only
// meaningful when Count > 0. Buckets is sparse and sorted by Log2.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Min     uint64       `json:"min,omitempty"`
	Max     uint64       `json:"max,omitempty"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every registered metric. It JSON
// round-trips exactly (uint64/sparse buckets; float64 uses Go's shortest
// round-trippable encoding) and compares with reflect.DeepEqual, which the
// determinism harness relies on.
type Snapshot struct {
	Counters map[string]uint64       `json:"counters,omitempty"`
	Floats   map[string]float64      `json:"floats,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
}

// UnmarshalJSON decodes a snapshot, swapping each metric name for its
// interned copy when the name is registered in this process, so decoded
// snapshots (checkpoints, served results) share name storage with live
// ones. Unknown names are kept as decoded and never interned.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	type plain Snapshot // drops the method, avoiding recursion
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	*s = Snapshot{
		Counters: canonicalKeys(p.Counters),
		Floats:   canonicalKeys(p.Floats),
		Gauges:   canonicalKeys(p.Gauges),
		Hists:    canonicalKeys(p.Hists),
	}
	return nil
}

func canonicalKeys[V any](m map[string]V) map[string]V {
	if m == nil {
		return nil
	}
	out := make(map[string]V, len(m))
	names.RLock()
	defer names.RUnlock()
	for k, v := range m {
		if c, ok := names.m[k]; ok {
			k = c
		}
		out[k] = v
	}
	return out
}

// Snapshot copies all current metric values. Zero-valued counters are
// included so the snapshot is a complete schema of the instrumented machine.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, p := range r.counters {
			s.Counters[name] = *p
		}
	}
	if len(r.floats) > 0 {
		s.Floats = make(map[string]float64, len(r.floats))
		for name, p := range r.floats {
			s.Floats[name] = *p
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.v
		}
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
			for i, n := range h.buckets {
				if n > 0 {
					hs.Buckets = append(hs.Buckets, HistBucket{Log2: i, N: n})
				}
			}
			s.Hists[name] = hs
		}
	}
	return s
}

// Counter returns the named counter's value from the snapshot, and whether it
// exists.
func (s Snapshot) Counter(name string) (uint64, bool) {
	v, ok := s.Counters[name]
	return v, ok
}

// SumCounters adds up every counter whose name ends in suffix — e.g.
// SumCounters(".hits") totals demand hits across cache levels.
func (s Snapshot) SumCounters(suffix string) uint64 {
	var total uint64
	for name, v := range s.Counters {
		if strings.HasSuffix(name, suffix) {
			total += v
		}
	}
	return total
}

// DiffSnapshots names the first metric (in sorted order) whose value differs
// between a and b, or returns "" when they are identical. The determinism
// harness uses it to turn "snapshots differ" into an actionable message.
func DiffSnapshots(a, b Snapshot) string {
	for _, k := range sortedKeys(a.Counters, b.Counters) {
		av, aok := a.Counters[k]
		bv, bok := b.Counters[k]
		if aok != bok || av != bv {
			return fmt.Sprintf("counter %s: %d vs %d", k, av, bv)
		}
	}
	for _, k := range sortedKeys(a.Floats, b.Floats) {
		av, aok := a.Floats[k]
		bv, bok := b.Floats[k]
		if aok != bok || av != bv {
			return fmt.Sprintf("float %s: %g vs %g", k, av, bv)
		}
	}
	for _, k := range sortedKeys(a.Gauges, b.Gauges) {
		av, aok := a.Gauges[k]
		bv, bok := b.Gauges[k]
		if aok != bok || av != bv {
			return fmt.Sprintf("gauge %s: %d vs %d", k, av, bv)
		}
	}
	for _, k := range sortedKeys(a.Hists, b.Hists) {
		av, aok := a.Hists[k]
		bv, bok := b.Hists[k]
		if aok != bok || av.Count != bv.Count || av.Sum != bv.Sum {
			return fmt.Sprintf("histogram %s: count %d sum %d vs count %d sum %d",
				k, av.Count, av.Sum, bv.Count, bv.Sum)
		}
	}
	return ""
}

func sortedKeys[V any](ms ...map[string]V) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
