package experiments

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"mdacache/internal/core"
)

// benchResults simulates one small golden design point for the codec
// benchmarks below.
func benchResults(b *testing.B) *core.Results {
	b.Helper()
	r, err := Run(goldenSpec(core.D1DiffSet))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkSnapshotJSON times one run's metric snapshot through the JSON
// codec that checkpoints, job records, statuses and event streams share.
func BenchmarkSnapshotJSON(b *testing.B) {
	snap := benchResults(b).Metrics
	data, err := json.Marshal(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var back core.Results
			if err := json.Unmarshal(data, &back.Metrics); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckpointFlush times the 16th single-entry flush of a sweep
// checkpoint: one run recorded and the state file rewritten while 15 runs are
// already flushed. The bytes go to a discarding writer, so the figure is the
// cost of building the file, not of the disk's fsync.
func BenchmarkCheckpointFlush(b *testing.B) {
	res := benchResults(b)
	c, err := LoadCheckpoint(filepath.Join(b.TempDir(), "state.json"))
	if err != nil {
		b.Fatal(err)
	}
	size := 0
	c.writeFile = func(_ string, data []byte) error {
		size = len(data)
		return nil
	}
	for i := 0; i < 15; i++ {
		c.RecordBuffered(fmt.Sprintf("run-%02d", i), res, "", "")
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RecordBuffered("run-15", res, "", "")
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "file-B")
}
