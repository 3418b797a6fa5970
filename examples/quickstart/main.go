// Quickstart: generate a task set, schedule it with the
// semi-partitioned FP-TS algorithm under the paper's measured
// overheads, and verify the schedule in the kernel simulator.
package main

import (
	"fmt"
	"log"

	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/taskgen"
	"repro/internal/timeq"
)

func main() {
	// A 12-task set at 85% utilization of a 4-core machine — too
	// heavy for naive partitioning to be comfortable, easy for FP-TS.
	set := taskgen.New(taskgen.Config{
		N:                12,
		TotalUtilization: 3.4,
		Seed:             2011,
	}).Next()
	fmt.Printf("generated %d tasks, ΣU = %.3f\n", set.Len(), set.TotalUtilization())

	model := overhead.PaperModel()
	a, err := partition.TS.Partition(set, 4, model)
	if err != nil {
		log.Fatalf("FP-TS could not schedule the set: %v", err)
	}
	fmt.Printf("\nFP-TS assignment (admitted with measured overheads):\n%s\n", a)

	res, err := sched.Run(a, sched.Config{Model: model, Horizon: 2 * timeq.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated 2s: %d jobs, %d preemptions, %d migrations\n",
		res.Stats.Finishes, res.Stats.Preemptions, res.Stats.Migrations)
	fmt.Printf("kernel overhead: %v (%.4f%% of core time)\n",
		res.Stats.TotalOverhead(), 100*res.Stats.OverheadRatio(4))
	if res.Schedulable() {
		fmt.Println("all deadlines met — analysis and simulation agree")
	} else {
		log.Fatalf("deadline misses: %v", res.Misses)
	}
}
