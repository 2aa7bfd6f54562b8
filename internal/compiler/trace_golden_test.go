package compiler_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"mdacache/internal/compiler"
	"mdacache/internal/isa"
	"mdacache/internal/workloads"
)

// traceCase is one compiled-trace configuration pinned by goldenTraces.
type traceCase struct {
	bench  string
	n      int
	l2d    bool
	layout compiler.Layout
	tile   int // TileSize applied to i/j/k, as experiments.RunSpec does
}

func (c traceCase) String() string {
	s := fmt.Sprintf("%s/n%d/1d", c.bench, c.n)
	if c.l2d {
		s = fmt.Sprintf("%s/n%d/2d", c.bench, c.n)
	}
	if c.layout != compiler.LayoutAuto {
		s += "/" + c.layout.String()
	}
	if c.tile > 0 {
		s += fmt.Sprintf("/tile%d", c.tile)
	}
	return s
}

func (c traceCase) program(tb testing.TB) *compiler.Program {
	tb.Helper()
	kern, err := workloads.Build(c.bench, c.n)
	if err != nil {
		tb.Fatal(err)
	}
	if c.tile > 0 {
		compiler.TileKernel(kern, map[string]int{"i": c.tile, "j": c.tile, "k": c.tile})
	}
	p, err := compiler.Compile(kern, compiler.Target{Logical2D: c.l2d, Layout: c.layout})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// traceHash is the FNV-1a hash of the trace's serialized form, which covers
// every Op field, plus the op count.
func traceHash(tb testing.TB, p *compiler.Program) (uint64, uint64) {
	tb.Helper()
	h := fnv.New64a()
	tr := p.Trace()
	defer tr.Close()
	n, err := isa.WriteTrace(h, tr)
	if err != nil {
		tb.Fatal(err)
	}
	return h.Sum64(), n
}

func goldenTraceCases() []traceCase {
	var cases []traceCase
	for _, b := range workloads.Names {
		for _, n := range []int{16, 64} {
			for _, l2d := range []bool{false, true} {
				cases = append(cases, traceCase{bench: b, n: n, l2d: l2d})
			}
		}
		cases = append(cases,
			traceCase{bench: b, n: 64, l2d: true, tile: 8},
			traceCase{bench: b, n: 64, l2d: false, layout: compiler.LayoutTiled})
	}
	return cases
}

// goldenTraces holds the trace hashes and op counts of every paper kernel,
// recorded before trace generation was compiled to slot-indexed form. Any
// change to the generated op stream (order, addresses, PCs, gaps, flags)
// shows up here. Set MDA_PRINT_TRACE_GOLDENS=1 to print the table.
var goldenTraces = map[string][2]uint64{
	"sgemm/n16/1d":        {0x889bce5b4469a32d, 8448},
	"sgemm/n16/2d":        {0x38d5e6968fad0bad, 1280},
	"sgemm/n64/1d":        {0x30b8ed1e5e166e2d, 528384},
	"sgemm/n64/2d":        {0x874504957fdaf02d, 69632},
	"sgemm/n64/2d/tile8":  {0x768e8427057b2c2d, 98304},
	"sgemm/n64/1d/tiled":  {0xd3cf71f6851ffa2d, 528384},
	"ssyr2k/n16/1d":       {0xbe56014d402efdcd, 9280},
	"ssyr2k/n16/2d":       {0x3a49b7f00b798ded, 4800},
	"ssyr2k/n64/1d":       {0xaac1056a6ce4932d, 541696},
	"ssyr2k/n64/2d":       {0xdeeae83ce45d08ed, 125952},
	"ssyr2k/n64/2d/tile8": {0xe8c87b08eae0cced, 125952},
	"ssyr2k/n64/1d/tiled": {0x3c4774901a106ed, 541696},
	"ssyrk/n16/1d":        {0xc3deefade004988d, 6848},
	"ssyrk/n16/2d":        {0xfed821da61c9a2dd, 3488},
	"ssyrk/n64/1d":        {0x450716531b8ead4d, 404480},
	"ssyrk/n64/2d":        {0x2df79d371150e48d, 92672},
	"ssyrk/n64/2d/tile8":  {0x480da36218e64ad, 92672},
	"ssyrk/n64/1d/tiled":  {0x835d2b03d62bc30d, 404480},
	"strmm/n16/1d":        {0xed08d0fdfbddecad, 4608},
	"strmm/n16/2d":        {0xf5fb7b38b138fb4d, 2368},
	"strmm/n64/1d":        {0x1f60432ed57078ad, 270336},
	"strmm/n64/2d":        {0x35ac09c255cd04ed, 62464},
	"strmm/n64/2d/tile8":  {0x35ac09c255cd04ed, 62464},
	"strmm/n64/1d/tiled":  {0x7c6a99a927d524d, 270336},
	"sobel/n16/1d":        {0xad949cfd58d0d745, 1968},
	"sobel/n16/2d":        {0x1d1c2e8fed821ed5, 1968},
	"sobel/n64/1d":        {0xe680de45260c3d61, 38472},
	"sobel/n64/2d":        {0xead990b4e9fa6191, 14664},
	"sobel/n64/2d/tile8":  {0x2c71a7910ca1d0d1, 14664},
	"sobel/n64/1d/tiled":  {0x3ab3d3cd7500e3e9, 38472},
	"htap1/n16/1d":        {0x5301b66d4035049c, 352},
	"htap1/n16/2d":        {0xca24ffcecf65a938, 184},
	"htap1/n64/1d":        {0x732dc7f334ae3cb0, 1120},
	"htap1/n64/2d":        {0x84f66267c39fae9a, 280},
	"htap1/n64/2d/tile8":  {0x8084857f470e907e, 1120},
	"htap1/n64/1d/tiled":  {0xd6238153ac886a7e, 1120},
	"htap2/n16/1d":        {0xfeb4b43936e6fcbf, 288},
	"htap2/n16/2d":        {0x68d79522234bd111, 204},
	"htap2/n64/1d":        {0xfed81673e702f4d3, 672},
	"htap2/n64/2d":        {0x2e52acd0b6d2a47e, 252},
	"htap2/n64/2d/tile8":  {0x78cffce58715b4e0, 672},
	"htap2/n64/1d/tiled":  {0x2c933f8b4072c6b8, 672},
}

func TestProgramTraceGolden(t *testing.T) {
	printTable := os.Getenv("MDA_PRINT_TRACE_GOLDENS") != ""
	for _, c := range goldenTraceCases() {
		h, n := traceHash(t, c.program(t))
		if printTable {
			fmt.Printf("\t%q: {%#x, %d},\n", c.String(), h, n)
			continue
		}
		want, ok := goldenTraces[c.String()]
		if !ok {
			t.Errorf("%s: no golden", c)
			continue
		}
		if h != want[0] || n != want[1] {
			t.Errorf("%s: trace hash %#x (%d ops), want %#x (%d ops)", c, h, n, want[0], want[1])
		}
	}
}

// BenchmarkProgramTrace measures trace generation alone: one sgemm N=64
// trace per iteration on each target, reported per emitted op.
func BenchmarkProgramTrace(b *testing.B) {
	for _, l2d := range []bool{false, true} {
		c := traceCase{bench: "sgemm", n: 64, l2d: l2d}
		b.Run(c.String(), func(b *testing.B) {
			p := c.program(b)
			b.ReportAllocs()
			var ops int
			for range b.N {
				tr := p.Trace()
				for {
					if _, ok := tr.Next(); !ok {
						break
					}
					ops++
				}
				tr.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/op-emitted")
		})
	}
}
