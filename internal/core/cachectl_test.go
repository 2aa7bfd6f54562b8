package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
)

// tagTestTiles are the tiles the invariant test draws from: tile 0 and
// tileBuckets share a residency bucket, and so do 1 and tileBuckets+1.
var tagTestTiles = []uint64{0, 1, 3, tileBuckets, tileBuckets + 1}

// randTagLine returns a random canonical line in one of tagTestTiles.
func randTagLine(rng *rand.Rand) isa.LineID {
	tile := tagTestTiles[rng.Intn(len(tagTestTiles))] * isa.TileSize
	i := uint64(rng.Intn(isa.LinesPerTile))
	if rng.Intn(2) == 0 {
		return isa.LineID{Base: tile + i*isa.LineSize, Orient: isa.Row}
	}
	return isa.LineID{Base: tile + i*isa.WordSize, Orient: isa.Col}
}

// checkWayTags fails unless every valid tag is key(w)|tagValid, sits in the
// set that key maps to, and no key is valid in two ways. It returns the
// valid ways by key, the brute-force view find must agree with.
func checkWayTags(t *testing.T, c *cacheCtl, key func(w int) uint64, set func(key uint64) int) map[uint64]int {
	t.Helper()
	resident := map[uint64]int{}
	for w, tag := range c.tags {
		if tag == 0 {
			continue
		}
		k := key(w)
		if tag != k|tagValid {
			t.Fatalf("way %d: tag %#x, want %#x", w, tag, k|tagValid)
		}
		if s := set(k); w/c.p.Assoc != s {
			t.Fatalf("way %d: key %#x resident in set %d, maps to set %d", w, k, w/c.p.Assoc, s)
		}
		if prev, dup := resident[k]; dup {
			t.Fatalf("key %#x valid in ways %d and %d", k, prev, w)
		}
		resident[k] = w
	}
	return resident
}

// checkTagState fails unless the packed tags and tile residency counts
// describe exactly the lines the ways hold, find agrees with a brute-force
// scan of every way for every line the test can touch, and tileEmpty never
// hides a resident line.
func checkTagState(t *testing.T, c *Cache1P) {
	t.Helper()
	var res [2][tileBuckets]int32
	for w := range c.lines {
		if l := &c.lines[w]; int(l.way) != w {
			t.Fatalf("way %d: line says way %d", w, l.way)
		} else if c.tags[w] != 0 {
			res[l.id.Orient][tileBucket(l.id.Base)]++
		}
	}
	resident := checkWayTags(t, &c.cacheCtl,
		func(w int) uint64 { return lineKey(c.lines[w].id) },
		func(k uint64) int { return c.setIndex(isa.LineID{Base: k &^ 1, Orient: isa.Orient(k & 1)}) })
	if res != c.tileRes {
		t.Fatalf("tileRes differs from a recount over the lines")
	}
	for _, tile := range tagTestTiles {
		for i := uint64(0); i < isa.LinesPerTile; i++ {
			base := tile * isa.TileSize
			for _, id := range []isa.LineID{
				{Base: base + i*isa.LineSize, Orient: isa.Row},
				{Base: base + i*isa.WordSize, Orient: isa.Col},
			} {
				var want *line
				if w, ok := resident[lineKey(id)]; ok {
					want = &c.lines[w]
				}
				if got := c.find(id); got != want {
					t.Fatalf("find(%v) = %p, brute-force scan %p", id, got, want)
				}
				if want != nil && c.tileEmpty(id) {
					t.Fatalf("tileEmpty(%v) with the line resident", id)
				}
			}
		}
	}
}

// checkTileTags is checkTagState for the tile array: the tags describe the
// tiles the ways hold, find agrees with a brute-force scan, and each small
// line's dirty bit implies its valid bit.
func checkTileTags(t *testing.T, c *Cache2P) {
	t.Helper()
	for w := range c.tiles {
		tl := &c.tiles[w]
		if int(tl.way) != w {
			t.Fatalf("way %d: tile says way %d", w, tl.way)
		}
		if c.tags[w] != 0 && (tl.rowDirty&^tl.rowValid != 0 || tl.colDirty&^tl.colValid != 0) {
			t.Fatalf("way %d: dirty lines %08b/%08b not valid %08b/%08b",
				w, tl.rowDirty, tl.colDirty, tl.rowValid, tl.colValid)
		}
	}
	resident := checkWayTags(t, &c.cacheCtl,
		func(w int) uint64 { return c.tiles[w].base },
		func(k uint64) int { return c.setIndex(k) })
	for _, tn := range tagTestTiles {
		base := tn * isa.TileSize
		var want *tile
		if w, ok := resident[base]; ok {
			want = &c.tiles[w]
		}
		if got := c.find(base); got != want {
			t.Fatalf("find(%#x) = %p, brute-force scan %p", base, got, want)
		}
	}
}

// TestPackedTagsAndTileResidency drives random fills, stores, vector stores
// (duplicate evictions), writebacks from above, snoop flushes and snoop
// invalidates through small caches of both arrays — 1P2L under both set
// mappings, sparse and dense tile caches — under every replacement policy,
// checking the packed tags (and the line array's tile residency counts)
// against the ways after every step.
func TestPackedTagsAndTileResidency(t *testing.T) {
	type array struct {
		name  string
		build func(q *sim.EventQueue, repl ReplPolicy) (cacheLevel, func(*testing.T))
	}
	var arrays []array
	for _, mapping := range []SetMapping{DifferentSet, SameSet} {
		mapping := mapping
		arrays = append(arrays, array{mapping.String(), func(q *sim.EventQueue, repl ReplPolicy) (cacheLevel, func(*testing.T)) {
			c, err := NewCache1P(q, CacheParams{
				Name: "L1", SizeBytes: 2 * KB, Assoc: 4,
				TagLat: 2, DataLat: 2, MSHRs: 4, Mapping: mapping, Repl: repl,
			}, true, newStub(q))
			if err != nil {
				t.Fatal(err)
			}
			return c, func(t *testing.T) { checkTagState(t, c) }
		}})
	}
	for _, dense := range []bool{false, true} {
		dense, name := dense, "sparse"
		if dense {
			name = "dense"
		}
		arrays = append(arrays, array{name, func(q *sim.EventQueue, repl ReplPolicy) (cacheLevel, func(*testing.T)) {
			c, err := NewCache2P(q, CacheParams{
				Name: "L1", SizeBytes: 2 * KB, Assoc: 2,
				TagLat: 2, DataLat: 2, MSHRs: 4, Repl: repl,
			}, dense, newStub(q))
			if err != nil {
				t.Fatal(err)
			}
			return c, func(t *testing.T) { checkTileTags(t, c) }
		}})
	}
	for ai, arr := range arrays {
		for _, repl := range []ReplPolicy{ReplLRU, ReplSRRIP, ReplRandom} {
			ai, arr, repl := ai, arr, repl
			t.Run(fmt.Sprintf("%s/%v", arr.name, repl), func(t *testing.T) {
				t.Parallel()
				q := &sim.EventQueue{}
				c, check := arr.build(q, repl)
				rng := rand.New(rand.NewSource(int64(ai)*10 + int64(repl)))
				flushed, invalidated := 0, 0
				for step := 0; step < 3000; step++ {
					id := randTagLine(rng)
					word := id.WordAddr(uint(rng.Intn(isa.WordsPerLine)))
					switch rng.Intn(8) {
					case 0:
						access(t, q, c, scalarLoad(word, id.Orient))
					case 1:
						access(t, q, c, scalarStore(word, id.Orient, uint64(step)))
					case 2:
						access(t, q, c, vectorLoad(id))
					case 3:
						access(t, q, c, isa.Op{Kind: isa.Store, Vector: true, Addr: id.Base, Orient: id.Orient, Value: uint64(step)})
					case 4:
						var data [isa.WordsPerLine]uint64
						c.Writeback(q.Now(), id, uint8(rng.Intn(255)+1), data)
						q.Run(0)
					case 5:
						flushed += c.snoopFlush(q.Now(), id)
					case 6:
						invalidated += c.snoopInvalidate(q.Now(), id, uint8(rng.Intn(255)+1))
					case 7:
						fill(t, q, c, id)
					}
					if err := q.Err(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					check(t)
				}
				st := c.Stats()
				if st.Evictions == 0 || flushed == 0 || invalidated == 0 {
					t.Fatalf("degenerate stream: %d evictions, %d snoop flushes, %d snoop invalidates",
						st.Evictions, flushed, invalidated)
				}
				if _, lines := c.(*Cache1P); lines && st.DuplicateEvictions == 0 {
					t.Fatal("degenerate stream: no duplicate evictions")
				}
			})
		}
	}
}

// TestStoreTargetsOnOneFill puts several scalar stores on one in-flight fill
// of a direct-mapped cache, plus a load to a conflicting line that stalls
// on the full MSHR file and is re-issued when the fill retires. Every store
// must land (visible through Peek after the conflicting line evicts its
// line) and every done must fire exactly once.
func TestStoreTargetsOnOneFill(t *testing.T) {
	params := CacheParams{Name: "L1", SizeBytes: 1 * KB, Assoc: 1, TagLat: 2, DataLat: 2, MSHRs: 1}
	for _, tc := range []struct {
		name  string
		build func(q *sim.EventQueue, stub *stubBackend) (Level, isa.LineID)
	}{
		{"lines", func(q *sim.EventQueue, stub *stubBackend) (Level, isa.LineID) {
			c, err := NewCache1P(q, params, true, stub)
			if err != nil {
				t.Fatal(err)
			}
			return c, conflictLine(c, 1)
		}},
		{"tiles", func(q *sim.EventQueue, stub *stubBackend) (Level, isa.LineID) {
			c, err := NewCache2P(q, params, false, stub)
			if err != nil {
				t.Fatal(err)
			}
			return c, isa.LineID{Base: uint64(c.nsets) * isa.TileSize, Orient: isa.Row}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := &sim.EventQueue{}
			stub := newStub(q)
			c, conflict := tc.build(q, stub)
			row := isa.LineID{Base: 0, Orient: isa.Row}
			done := make([]int, isa.WordsPerLine+1)
			for i := uint(0); i < isa.WordsPerLine; i += 2 {
				i := i
				c.CPUAccess(q.Now(), scalarStore(row.WordAddr(i), isa.Row, 100+uint64(i)),
					func(uint64, uint64) { done[i]++ })
			}
			c.CPUAccess(q.Now(), scalarLoad(conflict.Base, conflict.Orient),
				func(uint64, uint64) { done[isa.WordsPerLine]++ })
			if st := c.Stats(); st.MSHRCoalesced != 3 || st.MSHRStalls != 1 {
				t.Fatalf("coalesced %d, stalled %d; want 3 stores on one fill and 1 stalled load",
					st.MSHRCoalesced, st.MSHRStalls)
			}
			q.Run(0)
			if err := q.Err(); err != nil {
				t.Fatal(err)
			}
			for i, n := range done {
				if want := 1 - i%2; n != want {
					t.Fatalf("done %d fired %d times, want %d", i, n, want)
				}
			}
			if c.Stats().Evictions != 1 {
				t.Fatalf("evictions = %d; the conflicting fill must evict the stored line", c.Stats().Evictions)
			}
			got := c.Peek(row)
			for i := uint(0); i < isa.WordsPerLine; i += 2 {
				if got[i] != 100+uint64(i) {
					t.Fatalf("word %d = %d after the stores, want %d", i, got[i], 100+i)
				}
			}
		})
	}
}
