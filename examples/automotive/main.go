// Automotive: the paper's pipeline on a realistic engine-management
// workload — task periods drawn from the WATERS 2015 automotive
// benchmark histogram ({1..1000} ms with production weights) instead
// of the synthetic log-uniform distribution, scheduled with FP-TS
// under measured overheads, and cross-validated with the per-task
// bound-vs-observed report.
package main

import (
	"fmt"
	"log"

	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/taskgen"
	"repro/internal/timeq"
)

func main() {
	set := taskgen.New(taskgen.Config{
		N:                20,
		TotalUtilization: 3.3,
		Periods:          taskgen.Automotive,
		Seed:             2015,
	}).Next()
	fmt.Printf("automotive workload: %d tasks, ΣU = %.3f\n", set.Len(), set.TotalUtilization())
	hist := map[timeq.Time]int{}
	for _, t := range set.Tasks {
		hist[t.Period]++
	}
	fmt.Print("period histogram:")
	for _, p := range []int64{1, 2, 5, 10, 20, 50, 100, 200, 1000} {
		if n := hist[timeq.Time(p)*timeq.Millisecond]; n > 0 {
			fmt.Printf(" %dms×%d", p, n)
		}
	}
	fmt.Println()

	model := overhead.PaperModel()
	a, err := partition.TS.Partition(set, 4, model)
	if err != nil {
		log.Fatalf("FP-TS could not schedule: %v", err)
	}
	fmt.Printf("\n%s\n", a)

	res, err := sched.Run(a, sched.Config{
		Model:   model,
		Horizon: 2 * timeq.Second,
		// Real automotive tasks are sporadic: angle-synchronous tasks
		// arrive with jitter. 200µs of arrival jitter exercises the
		// sporadic path without changing the worst case.
		ArrivalJitter: 200 * timeq.Microsecond,
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := report.New(a, model, res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-task analysis bound vs simulated response (sporadic arrivals):")
	fmt.Print(rep.ResponseTable())
	fmt.Println()
	fmt.Print(rep.OverheadTable())
	if v := rep.Violations(); len(v) > 0 {
		log.Fatalf("bound violations: %v", v)
	}
	fmt.Println("\nno bound violations — the paper's overhead-aware admission holds")
	fmt.Println("on a production-shaped workload with sporadic arrivals.")
}
