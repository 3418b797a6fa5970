// Overheadsweep: sensitivity ablations over the overhead model —
// what would it take for run-time overheads to erase semi-partitioned
// scheduling's advantage?
//
//  1. Remote-penalty ablation: scale the extra cost of cross-core
//     queue operations (the part of the overhead unique to task
//     splitting) by 1×..8×.
//  2. CPMD ablation: scale migration cache penalties relative to
//     local preemption (the paper argues ≈1× under a shared L3;
//     private-LLC machines would be worse).
//  3. Global overhead scale: every overhead 1×..50× (how slow would
//     the kernel paths have to get before schedulability collapses?).
//
// Also re-measures Table 1 on this machine for reference.
package main

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/overhead"
)

func main() {
	grid := []float64{3.2, 3.4, 3.6, 3.8}
	base := experiment.Config{
		Cores:        4,
		Tasks:        12,
		SetsPerPoint: 80,
		Utilizations: grid,
		Seed:         7,
	}
	score := func(m *overhead.Model) (fpts, ffd float64) {
		cfg := base
		cfg.Model = m
		r := experiment.Run(cfg)
		return r.WeightedScore("FP-TS"), r.WeightedScore("FFD")
	}

	fmt.Println("Ablation A — remote queue-operation penalty (splitting's own cost)")
	fmt.Printf("%-10s %-8s %-8s %-8s\n", "penalty", "FP-TS", "FFD", "gap")
	for _, p := range []float64{1, 2, 4, 8} {
		f, d := score(overhead.PaperModel().WithRemotePenalty(p))
		fmt.Printf("%-10.0fx %-8.3f %-8.3f %+.3f\n", p, f, d, f-d)
	}

	fmt.Println("\nAblation B — migration CPMD factor (paper: ≈1 under shared L3)")
	fmt.Printf("%-10s %-8s %-8s %-8s\n", "factor", "FP-TS", "FFD", "gap")
	for _, f := range []float64{1, 2, 5, 10} {
		m := overhead.PaperModel()
		fp, ffd := score(m.WithCache(m.Cache.WithMigrationFactor(f)))
		fmt.Printf("%-10.0fx %-8.3f %-8.3f %+.3f\n", f, fp, ffd, fp-ffd)
	}

	fmt.Println("\nAblation C — global overhead scale (all Section 3 costs ×k)")
	fmt.Printf("%-10s %-8s %-8s\n", "scale", "FP-TS", "FFD")
	for _, k := range []float64{1, 10, 25, 50} {
		fp, ffd := score(overhead.PaperModel().Scale(k))
		fmt.Printf("%-10.0fx %-8.3f %-8.3f\n", k, fp, ffd)
	}

	fmt.Println("\nTable 1 re-measured on this machine (README.md: spmeasure):")
	fmt.Print(measure.FormatTable1(measure.Table1(500)))
}
