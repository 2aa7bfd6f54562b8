// Customkernel shows how to express a new workload against the library's
// public surface: declare arrays, write an affine loop nest, and let the
// compiler derive access directions, layout and two-direction vectorization
// — then measure it on two hierarchy designs.
//
// The kernel is a transposing stencil: out[j][i] = f(in[i][j-1..j+1]) — the
// input is read along rows while the output is written along columns, a
// pattern with no good answer on a 1-D hierarchy.
package main

import (
	"fmt"
	"log"

	"mdacache/internal/compiler"
	"mdacache/internal/core"
	"mdacache/internal/isa"
)

func main() {
	const n = 64
	in := compiler.NewArray("in", n, n)
	out := compiler.NewArray("out", n, n)
	i, j := compiler.Idx("i"), compiler.Idx("j")

	kernel := &compiler.Kernel{
		Name:   "transpose-stencil",
		Arrays: []*compiler.Array{in, out},
		Nests: []compiler.Nest{{
			Loops: []compiler.Loop{
				compiler.For("i", n),
				compiler.ForRange("j", compiler.C(8), compiler.C(n-8)),
			},
			Body: []compiler.Stmt{{
				Compute: 2,
				Refs: []compiler.Ref{
					compiler.R(in, i, j.PlusC(-1)), // row streams over j
					compiler.R(in, i, j),
					compiler.R(in, i, j.PlusC(1)),
					compiler.W(out, j, i), // column stream over j!
				},
			}},
		}},
	}

	for _, l2d := range []bool{false, true} {
		prog, err := compiler.Compile(kernel, compiler.Target{Logical2D: l2d})
		if err != nil {
			log.Fatal(err)
		}
		mix := prog.MeasureMix()
		design := core.D0Baseline
		label := "1-D target (scalar fallback: the column store blocks SIMD)"
		if l2d {
			design = core.D1DiffSet
			label = "2-D target (row-vector loads + column-vector stores)"
		}
		machine, err := core.Build(core.DefaultConfig(design, 1*core.MB).Scale(8))
		if err != nil {
			log.Fatal(err)
		}
		res, err := machine.RunTraces(prog.Trace())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(label)
		fmt.Printf("  ops: %d (%d vector, %d column-oriented)\n",
			res.Ops, res.Vectors, res.L1().ByOrient[isa.Col])
		fmt.Printf("  cycles: %d, memory traffic %.2f MB\n\n",
			res.Cycles, float64(res.Mem.TotalBytes())/1e6)
		_ = mix
	}
	fmt.Println("Rebuild the kernel with your own nests to explore other patterns.")
}
