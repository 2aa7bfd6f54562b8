package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

func TestCounterAliasesStorage(t *testing.T) {
	r := NewRegistry()
	var hits uint64
	r.Counter("l1.hits", &hits)

	if v, ok := r.Snapshot().Counter("l1.hits"); !ok || v != 0 {
		t.Fatalf("fresh counter = %d, %v; want 0, true (zero counters stay visible)", v, ok)
	}
	hits = 41
	hits++
	if v, _ := r.Snapshot().Counter("l1.hits"); v != 42 {
		t.Fatalf("after incrementing the aliased field: %d, want 42", v)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	var c uint64
	var f float64
	r.Counter("c", &c) // must not panic
	r.Float("f", &f)
	r.Gauge("g").Set(3)
	r.Gauge("g2").SetMax(5)
	r.Histogram("h").Observe(7)
	if got := r.Gauge("g").Value(); got != 0 {
		t.Fatalf("nil-registry gauge value = %d, want 0", got)
	}
	if got := r.Histogram("h").Count(); got != 0 {
		t.Fatalf("nil-registry histogram count = %d, want 0", got)
	}
	if s := r.Snapshot(); s.Counters != nil || s.Hists != nil {
		t.Fatalf("nil-registry snapshot not empty: %+v", s)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	var a, b uint64
	r.Counter("x", &a)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	r.Counter("x", &b)
}

func TestCrossKindDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	var a uint64
	r.Counter("x", &a)
	defer func() {
		if recover() == nil {
			t.Fatal("histogram reusing a counter name did not panic")
		}
	}()
	r.Histogram("x")
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(4)
	g.SetMax(2) // below current: ignored
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("gauge = %d, want 9", g.Value())
	}
	if got, _ := r.Snapshot().Gauges.Get("depth"); got != 9 {
		t.Fatalf("snapshot gauge = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []uint64{0, 1, 1, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got := h.Mean(); got != 107.0/6.0 {
		t.Fatalf("mean = %g, want %g", got, 107.0/6.0)
	}
	hs, _ := r.Snapshot().Hists.Get("lat")
	if hs.Min != 0 || hs.Max != 100 || hs.Sum != 107 {
		t.Fatalf("snapshot = %+v, want min 0 max 100 sum 107", hs)
	}
	// bits.Len64: 0→bucket 0, 1→1, {2,3}→2, 100→7. Sparse, sorted.
	want := []HistBucket{{Log2: 0, N: 1}, {Log2: 1, N: 2}, {Log2: 2, N: 2}, {Log2: 7, N: 1}}
	if !reflect.DeepEqual(hs.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", hs.Buckets, want)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	var c uint64 = 7
	var f float64 = 2.5
	r.Counter("c", &c)
	r.Float("f", &f)
	r.Gauge("g").Set(-3)
	r.Histogram("h").Observe(12)
	s := r.Snapshot()

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the snapshot:\n  %+v\nvs\n  %+v", s, back)
	}
	if d := DiffSnapshots(s, back); d != "" {
		t.Fatalf("DiffSnapshots after round trip: %s", d)
	}
}

// TestSnapshotJSONEdgeCases compares the snapshot codec with encoding/json's
// map encoding where the two could part: names that JSON escapes, floats in
// exponent form, negative gauges, empty histograms and empty kinds.
func TestSnapshotJSONEdgeCases(t *testing.T) {
	s := Snapshot{
		Counters: Metrics[uint64]{{"a&b", 1}, {"a<b>", 2}, {"caf\u00e9", 3}, {"q\"uote", 1 << 63}},
		Floats:   Metrics[float64]{{"big", 1e21}, {"neg", -2.5e-9}, {"small", 1e-7}, {"zero", 0}},
		Gauges:   Metrics[int64]{{"g", -9}},
		Hists:    Metrics[HistSnapshot]{{"empty", HistSnapshot{}}, {"h", HistSnapshot{Count: 2, Sum: 9, Min: 1, Max: 8, Buckets: []HistBucket{{1, 1}, {4, 1}}}}},
	}
	type maps struct {
		Counters map[string]uint64       `json:"counters,omitempty"`
		Floats   map[string]float64      `json:"floats,omitempty"`
		Gauges   map[string]int64        `json:"gauges,omitempty"`
		Hists    map[string]HistSnapshot `json:"hists,omitempty"`
	}
	m := maps{map[string]uint64{}, map[string]float64{}, map[string]int64{}, map[string]HistSnapshot{}}
	for _, e := range s.Counters {
		m.Counters[e.Name] = e.Value
	}
	for _, e := range s.Floats {
		m.Floats[e.Name] = e.Value
	}
	for _, e := range s.Gauges {
		m.Gauges[e.Name] = e.Value
	}
	for _, e := range s.Hists {
		m.Hists[e.Name] = e.Value
	}
	for _, c := range []struct {
		name string
		s    Snapshot
		m    maps
	}{
		{"all kinds", s, m},
		{"counters only", Snapshot{Counters: s.Counters}, maps{Counters: m.Counters}},
		{"hists only", Snapshot{Hists: s.Hists}, maps{Hists: m.Hists}},
		{"empty", Snapshot{}, maps{}},
	} {
		got, err := json.Marshal(c.s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(c.m)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, want)
		}
		var back Snapshot
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, c.s) {
			t.Errorf("%s: round trip changed the snapshot: %+v vs %+v", c.name, back, c.s)
		}
	}
	if _, err := json.Marshal(Snapshot{Floats: Metrics[float64]{{"nan", math.NaN()}}}); err == nil {
		t.Error("NaN float encoded without an error")
	}
}

func TestSumCounters(t *testing.T) {
	r := NewRegistry()
	var l1, l2, other uint64 = 10, 32, 5
	r.Counter("l1.hits", &l1)
	r.Counter("l2.hits", &l2)
	r.Counter("l1.misses", &other)
	if got := r.Snapshot().SumCounters(".hits"); got != 42 {
		t.Fatalf("SumCounters(.hits) = %d, want 42", got)
	}
}

func TestDiffSnapshots(t *testing.T) {
	mk := func(v uint64) Snapshot {
		return Snapshot{Counters: Metrics[uint64]{{"a", 1}, {"b", v}}}
	}
	if d := DiffSnapshots(mk(2), mk(2)); d != "" {
		t.Fatalf("equal snapshots diff: %q", d)
	}
	if d := DiffSnapshots(mk(2), mk(3)); d != "counter b: 2 vs 3" {
		t.Fatalf("diff = %q", d)
	}
	// A key present on one side only is a difference too.
	if d := DiffSnapshots(mk(2), Snapshot{Counters: Metrics[uint64]{{"a", 1}}}); d == "" {
		t.Fatal("missing key not reported")
	}
	a := Snapshot{Hists: Metrics[HistSnapshot]{{"h", HistSnapshot{Count: 1, Sum: 5}}}}
	b := Snapshot{Hists: Metrics[HistSnapshot]{{"h", HistSnapshot{Count: 1, Sum: 6}}}}
	if d := DiffSnapshots(a, b); d == "" {
		t.Fatal("histogram divergence not reported")
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	var nilH *Histogram
	if n := testing.AllocsPerRun(100, func() { h.Observe(17) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { nilH.Observe(17) }); n != 0 {
		t.Fatalf("nil Histogram.Observe allocates %v times per call", n)
	}
}

// TestSnapshotDecodeInternsKnownNames checks that decoding swaps registered
// names for their interned copies, keeps the round trip exact, and never
// adds unknown names to the interned set.
func TestSnapshotDecodeInternsKnownNames(t *testing.T) {
	r := NewRegistry()
	var c uint64 = 3
	r.Counter("intern.test.known", &c)
	s := r.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the snapshot: %+v vs %+v", s, back)
	}
	for _, e := range back.Counters {
		if unsafe.StringData(e.Name) != unsafe.StringData(internName("intern.test.known")) {
			t.Fatalf("decoded name %q not interned", e.Name)
		}
	}

	size := func() int {
		names.RLock()
		defer names.RUnlock()
		return len(names.m)
	}
	before := size()
	unknown := []byte(`{"counters":{"intern.test.unknown.a":1},"floats":{"intern.test.unknown.b":2},` +
		`"gauges":{"intern.test.unknown.c":3},"hists":{"intern.test.unknown.d":{"count":1,"sum":4}}}`)
	var u Snapshot
	if err := json.Unmarshal(unknown, &u); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != before {
		t.Fatalf("decoding unknown names grew the interned set from %d to %d", before, got)
	}
	f, _ := u.Floats.Get("intern.test.unknown.b")
	g, _ := u.Gauges.Get("intern.test.unknown.c")
	h, _ := u.Hists.Get("intern.test.unknown.d")
	if v, _ := u.Counter("intern.test.unknown.a"); v != 1 || f != 2 || g != 3 || h.Sum != 4 {
		t.Fatalf("unknown names decoded wrong: %+v", u)
	}
}
