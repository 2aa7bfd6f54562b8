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

// checkTagState fails unless the packed tags and tile residency counts
// describe exactly the valid lines, find agrees with a brute-force scan of
// every way for every line the test can touch, and tileEmpty never hides a
// resident line.
func checkTagState(t *testing.T, c *Cache1P) {
	t.Helper()
	var res [2][tileBuckets]int32
	for w := range c.lines {
		l := &c.lines[w]
		if int(l.way) != w {
			t.Fatalf("way %d: line says way %d", w, l.way)
		}
		if (c.tags[w] != 0) != l.valid {
			t.Fatalf("way %d: tag %#x but valid=%v", w, c.tags[w], l.valid)
		}
		if l.valid {
			if want := lineKey(l.id) | tagValid; c.tags[w] != want {
				t.Fatalf("way %d: tag %#x, want %#x for %v", w, c.tags[w], want, l.id)
			}
			res[l.id.Orient][tileBucket(l.id.Base)]++
		}
	}
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
				for w := range c.lines {
					if c.lines[w].valid && c.lines[w].id == id {
						want = &c.lines[w]
					}
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

// TestPackedTagsAndTileResidency drives random fills, stores, vector stores
// (duplicate evictions), writebacks from above, snoop flushes and snoop
// invalidates through small 1P2L caches under both set mappings and every
// replacement policy, checking the packed tags, the tile residency counts
// and find after every step.
func TestPackedTagsAndTileResidency(t *testing.T) {
	for _, mapping := range []SetMapping{DifferentSet, SameSet} {
		for _, repl := range []ReplPolicy{ReplLRU, ReplSRRIP, ReplRandom} {
			mapping, repl := mapping, repl
			t.Run(fmt.Sprintf("%v/%v", mapping, repl), func(t *testing.T) {
				t.Parallel()
				q := &sim.EventQueue{}
				c, err := NewCache1P(q, CacheParams{
					Name: "L1", SizeBytes: 2 * KB, Assoc: 4,
					TagLat: 2, DataLat: 2, MSHRs: 4, Mapping: mapping, Repl: repl,
				}, true, newStub(q))
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(mapping)*10 + int64(repl)))
				flushed, invalidated := 0, 0
				for step := 0; step < 3000; step++ {
					id := randTagLine(rng)
					word := id.WordAddr(uint(rng.Intn(isa.WordsPerLine)))
					switch rng.Intn(7) {
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
					}
					if err := q.Err(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					checkTagState(t, c)
				}
				st := c.Stats()
				if st.Evictions == 0 || st.DuplicateEvictions == 0 || flushed == 0 || invalidated == 0 {
					t.Fatalf("degenerate stream: %d evictions, %d duplicate evictions, %d snoop flushes, %d snoop invalidates",
						st.Evictions, st.DuplicateEvictions, flushed, invalidated)
				}
			})
		}
	}
}
