// Package experiments is documented in run.go (package comment there); this
// file adds the map from the paper's evaluation to entry points:
//
//	Table I   — RunSpec.Config / core.DefaultConfig
//	Fig. 10   — Suite.Fig10 (access-type distribution)
//	Fig. 11   — Suite.Fig11 (normalized L1 hit rates)
//	Fig. 12   — Suite.Fig12 (normalized cycles × LLC capacity)
//	Fig. 13   — Suite.Fig13 (cache-resident, two-level)
//	Fig. 14   — Suite.Fig14 (LLC accesses + memory bytes)
//	Fig. 15   — Suite.Fig15 (column occupancy over time)
//	Fig. 16   — Suite.Fig16 (2P2L write asymmetry)
//	Fig. 17   — Suite.Fig17 (1.6× faster memory)
//
// Ablations and extensions:
//
//	Suite.AblationLayout     — §IV-C layout mismatch
//	Suite.AblationDense      — dense vs sparse 2P2L fill
//	Suite.AblationDesign3    — §IV-C Design 3 (2P2L L1)
//	Suite.AblationTiling     — §X collaborative tiling
//	Suite.AblationLoopOrder  — §I loop-order (in)sensitivity
//	Suite.AblationTech       — §II ReRAM/PCM presets + energy
//	Suite.AblationMapping    — Same-Set at low associativity
//	Suite.AblationRepl       — replacement policies
//	Suite.AblationSubBuffers — §IX-B multiple sub-row buffers
//	Suite.Report             — paper-vs-measured claims table
//
// Sweep infrastructure:
//
//	RunSweep          — crash-isolated parallel sweep (SweepOptions.Workers)
//	Memo              — single-flight memo of runs by SpecKey (Suite, mdaserve)
//	Checkpoint        — mutex-guarded, atomically-flushed resume state
//	CheckDeterminism  — harness proving Workers=N ≡ Workers=1, bit for bit
package experiments
