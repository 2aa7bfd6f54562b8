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
	"fmt"
	"math/bits"
	"slices"
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

// Metric is one named value in a Snapshot.
type Metric[V any] struct {
	Name  string
	Value V
}

// Metrics is one kind of metric in a Snapshot, sorted by name. It encodes as
// a JSON object keyed by name, byte-identical to encoding/json's encoding of
// a map[string]V, whose keys are sorted the same way.
type Metrics[V any] []Metric[V]

// Get returns the named value, and whether it exists, by binary search.
func (m Metrics[V]) Get(name string) (V, bool) {
	i, ok := slices.BinarySearchFunc(m, name, func(e Metric[V], name string) int {
		return strings.Compare(e.Name, name)
	})
	if !ok {
		var zero V
		return zero, false
	}
	return m[i].Value, true
}

// Snapshot is a point-in-time copy of every registered metric. It JSON
// round-trips exactly (uint64/sparse buckets; float64 uses Go's shortest
// round-trippable encoding) and compares with reflect.DeepEqual, which the
// determinism harness relies on. Each kind is a name-sorted slice rather
// than a map: a run's Results keep its snapshot for as long as they are
// held, and a slice costs under half the memory.
type Snapshot struct {
	Counters Metrics[uint64]       `json:"counters,omitempty"`
	Floats   Metrics[float64]      `json:"floats,omitempty"`
	Gauges   Metrics[int64]        `json:"gauges,omitempty"`
	Hists    Metrics[HistSnapshot] `json:"hists,omitempty"`
}

func sortMetrics[V any](m Metrics[V]) {
	slices.SortFunc(m, func(a, b Metric[V]) int { return strings.Compare(a.Name, b.Name) })
}

// Snapshot copies all current metric values. Zero-valued counters are
// included so the snapshot is a complete schema of the instrumented machine.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.Counters = snapshotKind(r.counters, func(p *uint64) uint64 { return *p })
	s.Floats = snapshotKind(r.floats, func(p *float64) float64 { return *p })
	s.Gauges = snapshotKind(r.gauges, func(g *Gauge) int64 { return g.v })
	s.Hists = snapshotKind(r.hists, func(h *Histogram) HistSnapshot {
		hs := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		for i, n := range h.buckets {
			if n > 0 {
				hs.Buckets = append(hs.Buckets, HistBucket{Log2: i, N: n})
			}
		}
		return hs
	})
	return s
}

// snapshotKind reads every metric of one kind, sorted by name.
func snapshotKind[P, V any](m map[string]P, read func(P) V) Metrics[V] {
	if len(m) == 0 {
		return nil
	}
	out := make(Metrics[V], 0, len(m))
	for name, p := range m {
		out = append(out, Metric[V]{name, read(p)})
	}
	sortMetrics(out)
	return out
}

// Counter returns the named counter's value from the snapshot, and whether it
// exists.
func (s Snapshot) Counter(name string) (uint64, bool) {
	return s.Counters.Get(name)
}

// SumCounters adds up every counter whose name ends in suffix — e.g.
// SumCounters(".hits") totals demand hits across cache levels.
func (s Snapshot) SumCounters(suffix string) uint64 {
	var total uint64
	for _, e := range s.Counters {
		if strings.HasSuffix(e.Name, suffix) {
			total += e.Value
		}
	}
	return total
}

// DiffSnapshots names the first metric (in sorted order) whose value differs
// between a and b, or returns "" when they are identical. The determinism
// harness uses it to turn "snapshots differ" into an actionable message.
func DiffSnapshots(a, b Snapshot) string {
	if k, av, bv, ok := firstDiff(a.Counters, b.Counters, func(x, y uint64) bool { return x == y }); ok {
		return fmt.Sprintf("counter %s: %d vs %d", k, av, bv)
	}
	if k, av, bv, ok := firstDiff(a.Floats, b.Floats, func(x, y float64) bool { return x == y }); ok {
		return fmt.Sprintf("float %s: %g vs %g", k, av, bv)
	}
	if k, av, bv, ok := firstDiff(a.Gauges, b.Gauges, func(x, y int64) bool { return x == y }); ok {
		return fmt.Sprintf("gauge %s: %d vs %d", k, av, bv)
	}
	if k, av, bv, ok := firstDiff(a.Hists, b.Hists, func(x, y HistSnapshot) bool {
		return x.Count == y.Count && x.Sum == y.Sum
	}); ok {
		return fmt.Sprintf("histogram %s: count %d sum %d vs count %d sum %d",
			k, av.Count, av.Sum, bv.Count, bv.Sum)
	}
	return ""
}

// firstDiff walks two name-sorted lists together and returns the first name
// present in only one of them or whose values differ; a missing side reads
// as the zero value.
func firstDiff[V any](a, b Metrics[V], same func(V, V) bool) (name string, av, bv V, found bool) {
	var zero V
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i].Name < b[j].Name):
			return a[i].Name, a[i].Value, zero, true
		case i == len(a) || b[j].Name < a[i].Name:
			return b[j].Name, zero, b[j].Value, true
		case !same(a[i].Value, b[j].Value):
			return a[i].Name, a[i].Value, b[j].Value, true
		}
		i++
		j++
	}
	return "", zero, zero, false
}
