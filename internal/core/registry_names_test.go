package core

import (
	"reflect"
	"sort"
	"testing"
)

// Metric name families of a built machine, as published before every
// machine shared one wiring. A level, core or hub family appears once per
// component under that component's prefix.
var (
	levelMetricNames = []string{
		"accesses", "accesses.col", "accesses.row", "bytes_from_below",
		"bytes_to_below", "duplicate_evictions", "duplicate_flushes",
		"evictions", "extra_tag_probes", "fill_latency", "fills_issued",
		"hits", "hits_wrong_orient", "misses", "mshr_coalesced",
		"mshr_stalls", "partial_hits", "prefetch_issued", "prefetch_useful",
		"scalar_accesses", "set_arb_delay", "set_conflicts",
		"vector_accesses", "writebacks", "writebacks_in",
	}
	cpuMetricNames = []string{
		"loads", "ops", "ops.col", "ops.row", "order_stalls", "stores", "vectors",
	}
	hubMetricNames   = []string{"snoop_flushes", "snoop_invalidates"}
	otherMetricNames = []string{
		"mem.activations.col", "mem.activations.row", "mem.buffer_hits.col",
		"mem.buffer_hits.row", "mem.bytes_read", "mem.bytes_written",
		"mem.energy.activation_pj", "mem.energy.buffer_pj", "mem.energy.bus_pj",
		"mem.energy.write_pj", "mem.read_latency", "mem.read_latency_sum",
		"mem.reads.col", "mem.reads.row", "mem.write_faults",
		"mem.write_retries", "mem.writes.col", "mem.writes.row", "sim.events",
	}
)

// TestRegistryNameSet pins the exact metric names of a one-core and a
// two-core machine. A single core publishes "cpu.*" and "l1.*" and no
// coherence counters; two cores publish "cpu<i>.*", "l1c<i>.*" and the
// hub's "coherence.*". Names leaking from one shape into the other would
// change every metrics snapshot and checkpoint without failing a value test.
func TestRegistryNameSet(t *testing.T) {
	family := func(prefix string, names []string) []string {
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = prefix + "." + n
		}
		return out
	}
	cases := []struct {
		cores int
		cpus  []string
		l1s   []string
		hub   bool
	}{
		{1, []string{"cpu"}, []string{"l1"}, false},
		{2, []string{"cpu0", "cpu1"}, []string{"l1c0", "l1c1"}, true},
	}
	for _, c := range cases {
		want := append([]string(nil), otherMetricNames...)
		for _, p := range c.cpus {
			want = append(want, family(p, cpuMetricNames)...)
		}
		for _, p := range append(c.l1s, "l2", "l3") {
			want = append(want, family(p, levelMetricNames)...)
		}
		if c.hub {
			want = append(want, family("coherence", hubMetricNames)...)
		}
		sort.Strings(want)

		m, err := Build(mcConfig(D1DiffSet, c.cores))
		if err != nil {
			t.Fatal(err)
		}
		snap := m.Registry.Snapshot()
		var got []string
		for _, e := range snap.Counters {
			got = append(got, e.Name)
		}
		for _, e := range snap.Floats {
			got = append(got, e.Name)
		}
		for _, e := range snap.Gauges {
			got = append(got, e.Name)
		}
		for _, e := range snap.Hists {
			got = append(got, e.Name)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cores=%d: metric names\n got %q\nwant %q", c.cores, got, want)
		}
	}
}
