// Splitting: the bin-packing pathology that motivates semi-partitioned
// scheduling (paper, Section 1), worked end to end.
//
// Three tasks of utilization 0.6 cannot be partitioned onto two cores
// — every pair overloads a core — even though total utilization is
// only 1.8 of 2.0. FP-TS splits one task across the cores and the set
// becomes schedulable; the simulator shows the job migrating every
// period, and the trace shows what a migration costs.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/timeq"
	"repro/internal/trace"
)

func main() {
	model := overhead.PaperModel()
	mk := func(id task.ID) *task.Task {
		// U = 0.575 each: any two overload a core, so partitioning
		// fails, while total utilization is only 1.725 of 2.0. (The
		// 25ms of slack per hyperperiod absorbs the µs overheads.)
		return &task.Task{ID: id, WCET: 11500 * timeq.Microsecond, Period: 20 * timeq.Millisecond, WSS: 512 << 10}
	}
	set := task.NewSet(mk(1), mk(2), mk(3))
	set.AssignRM()
	fmt.Printf("3 tasks × U=0.575 on 2 cores (ΣU = %.3f)\n\n", set.TotalUtilization())

	for _, alg := range []partition.Algorithm{partition.FFD, partition.WFD} {
		if _, err := alg.Partition(set.Clone(), 2, model); err != nil {
			fmt.Printf("%-5s cannot schedule the set (bin-packing waste)\n", alg.Name())
		} else {
			fmt.Printf("%-5s unexpectedly schedulable?!\n", alg.Name())
		}
	}

	a, err := partition.TS.Partition(set.Clone(), 2, model)
	if err != nil {
		log.Fatalf("FP-TS failed: %v", err)
	}
	fmt.Printf("FP-TS schedules it by splitting:\n%s\n", a)

	buf := &trace.Buffer{}
	res, err := sched.Run(a, sched.Config{
		Model:    model,
		Horizon:  200 * timeq.Millisecond,
		Recorder: buf,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated 200ms with paper overheads: %d migrations, %d preemptions\n",
		res.Stats.Migrations, res.Stats.Preemptions)
	fmt.Printf("overhead total %v (%.4f%% of core time); all deadlines met: %v\n\n",
		res.Stats.TotalOverhead(), 100*res.Stats.OverheadRatio(2), res.Schedulable())

	fmt.Println("first 25ms of the timeline (watch the split task hop cores):")
	if err := buf.Timeline(os.Stdout, 0, 25*timeq.Millisecond); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nand as a gantt chart (τ3 is the split task — see it on both cores):")
	if err := buf.Gantt(os.Stdout, 0, 40*timeq.Millisecond, 80); err != nil {
		log.Fatal(err)
	}
}
