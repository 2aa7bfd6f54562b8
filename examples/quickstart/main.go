// Quickstart: build an MDA machine, compile a kernel for it, run it, and
// read the results — the smallest end-to-end use of the library.
package main

import (
	"fmt"
	"log"

	"mdacache/internal/compiler"
	"mdacache/internal/core"
	"mdacache/internal/workloads"
)

func main() {
	// 1. Pick a design point. D1DiffSet is the paper's "1P2L": ordinary
	//    SRAM caches made logically 2-D. Scale 8 keeps this instant.
	cfg := core.DefaultConfig(core.D1DiffSet, 1*core.MB).Scale(8)

	// 2. Build a kernel (matrix multiply, 64×64) and compile it for a
	//    logically 2-D hierarchy: the compiler extracts row/column
	//    preferences, lays the matrices out in MDA-compliant tiles, and
	//    vectorizes along both dimensions.
	kernel := workloads.Sgemm(64)
	prog, err := compiler.Compile(kernel, compiler.Target{Logical2D: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compiled:", prog)

	mix := prog.MeasureMix()
	fmt.Printf("access mix: %.0f%% row / %.0f%% column by data volume\n",
		100*(1-mix.ColShare()), 100*mix.ColShare())

	// 3. Build the machine and run the program's memory trace through it.
	machine, err := core.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := machine.RunTraces(prog.Trace())
	if err != nil {
		log.Fatal(err)
	}

	// 4. Read the results.
	fmt.Printf("executed %d memory ops in %d cycles\n", res.Ops, res.Cycles)
	fmt.Printf("L1 hit rate %.1f%%, LLC accesses %d, memory traffic %.2f MB\n",
		100*res.L1().HitRate(), res.LLC().Accesses,
		float64(res.Mem.TotalBytes())/1e6)
	fmt.Printf("memory reads: %d row-mode, %d column-mode\n",
		res.Mem.Reads[0], res.Mem.Reads[1])
}
