// Package repro's root benchmarks regenerate every table and figure
// of the paper (see DESIGN.md §5 for the experiment index):
//
//	BenchmarkFigure1Timeline         — Figure 1, overhead anatomy
//	BenchmarkTable1QueueOps          — Table 1, queue-op durations
//	BenchmarkTable1FunctionCosts     — Section 3 rls/sch/cnt costs
//	BenchmarkSection4AcceptanceRatio — the acceptance-ratio comparison
//	BenchmarkAblationRemotePenalty   — ablation A (remote queue cost)
//	BenchmarkAblationCPMD            — ablation B (migration CPMD)
//	BenchmarkMixedPolicySweep        — FP vs EDF as one paired sweep
//	BenchmarkSimulatorThroughput     — simulator events/sec (engine)
//
// Each benchmark prints the regenerated rows once (on the first
// iteration) and reports a throughput-style metric so `go test
// -bench=.` both reproduces the artifacts and tracks performance.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/taskgen"
	"repro/internal/timeq"
	"repro/internal/trace"
)

// printOnce guards the one-time artifact dumps so -benchtime loops
// do not repeat them.
var printOnce sync.Map

func once(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// BenchmarkFigure1Timeline regenerates the paper's Figure 1: the
// anatomy of release, scheduling, context-switch and cache overheads
// around a preemption, on the paper's overhead model.
func BenchmarkFigure1Timeline(b *testing.B) {
	t1 := &task.Task{ID: 1, WCET: 2 * timeq.Millisecond, Period: 10 * timeq.Millisecond, WSS: 256 << 10}
	t2 := &task.Task{ID: 2, WCET: 5 * timeq.Millisecond, Period: 20 * timeq.Millisecond, WSS: 256 << 10}
	mkAssign := func() *task.Assignment {
		s := task.NewSet(t1, t2)
		s.AssignRM()
		a := task.NewAssignment(1)
		a.Place(t1, 0)
		a.Place(t2, 0)
		return a
	}
	a := mkAssign()
	cfg := sched.Config{
		Model:   overhead.PaperModel(),
		Horizon: 20 * timeq.Millisecond,
		Offsets: map[task.ID]timeq.Time{1: 2 * timeq.Millisecond},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := &trace.Buffer{}
		c := cfg
		c.Recorder = buf
		res, err := sched.Run(a, c)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Schedulable() {
			b.Fatal("figure-1 scenario missed a deadline")
		}
		once("figure1", func() {
			fmt.Println("\n=== Figure 1: overhead timeline (paper model) ===")
			fmt.Println(buf.Summary())
		})
	}
}

// BenchmarkTable1QueueOps regenerates Table 1 by measuring this
// machine's binomial-heap and red-black-tree operation durations at
// N = 4 and N = 64, local and remote.
func BenchmarkTable1QueueOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := measure.Table1(300)
		once("table1", func() {
			fmt.Println("\n=== Table 1: queue operation durations ===")
			fmt.Print(measure.FormatTable1(rows))
		})
	}
}

// BenchmarkTable1FunctionCosts regenerates the Section 3 function
// cost measurements (rls, sch, cnt_swth analogs).
func BenchmarkTable1FunctionCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		costs := measure.FunctionCosts(300)
		once("funcosts", func() {
			fmt.Println("\n=== Section 3: function costs ===")
			fmt.Print(measure.FormatFunctionCosts(costs))
		})
	}
}

// section4 runs one Section 4 sweep (shared by the benches below).
func section4(model *overhead.Model, sets int, seed int64) *experiment.Results {
	return experiment.Run(experiment.Config{
		Cores:        4,
		Tasks:        12,
		SetsPerPoint: sets,
		Utilizations: []float64{2.8, 3.0, 3.2, 3.4, 3.6, 3.8},
		Model:        model,
		Seed:         seed,
	})
}

// BenchmarkSection4AcceptanceRatio regenerates the paper's Section 4
// comparison: FP-TS vs FFD vs WFD acceptance ratios, with measured
// overheads integrated (and the zero-overhead baseline).
func BenchmarkSection4AcceptanceRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		zero := section4(overhead.Zero(), 60, 42)
		paper := section4(overhead.PaperModel(), 60, 42)
		once("section4", func() {
			fmt.Println("\n=== Section 4: acceptance ratio, zero overheads ===")
			fmt.Print(zero.Table())
			fmt.Println("=== Section 4: acceptance ratio, measured overheads ===")
			fmt.Print(paper.Table())
		})
		if paper.WeightedScore("FP-TS") < paper.WeightedScore("FFD") {
			b.Fatal("FP-TS should dominate FFD with overheads integrated")
		}
	}
}

// BenchmarkAblationRemotePenalty regenerates ablation A: how the
// FP-TS advantage responds to scaling the remote queue-operation
// penalty — the overhead component unique to task splitting.
func BenchmarkAblationRemotePenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var out string
		for _, p := range []float64{1, 2, 4, 8} {
			r := section4(overhead.PaperModel().WithRemotePenalty(p), 40, 7)
			out += fmt.Sprintf("  remote×%-3.0f FP-TS %.3f  FFD %.3f\n",
				p, r.WeightedScore("FP-TS"), r.WeightedScore("FFD"))
		}
		once("ablationA", func() {
			fmt.Println("\n=== Ablation A: remote queue penalty ===")
			fmt.Print(out)
		})
	}
}

// BenchmarkAblationCPMD regenerates ablation B: migration CPMD factor
// sweep (the paper measures ≈1× under a shared L3).
func BenchmarkAblationCPMD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var out string
		for _, f := range []float64{1, 2, 5, 10} {
			m := overhead.PaperModel()
			r := section4(m.WithCache(m.Cache.WithMigrationFactor(f)), 40, 7)
			out += fmt.Sprintf("  CPMD×%-4.0f FP-TS %.3f  FFD %.3f\n",
				f, r.WeightedScore("FP-TS"), r.WeightedScore("FFD"))
		}
		once("ablationB", func() {
			fmt.Println("\n=== Ablation B: migration CPMD factor ===")
			fmt.Print(out)
		})
	}
}

// BenchmarkAblationPriorityBoost regenerates the DESIGN.md §6
// design-choice ablation: split parts at boosted top priority (the
// shipped design) versus plain RM priority.
func BenchmarkAblationPriorityBoost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Run(experiment.Config{
			Cores: 4, Tasks: 12, SetsPerPoint: 40,
			Utilizations: []float64{3.4, 3.6, 3.8, 3.9},
			Algorithms:   []partition.Algorithm{partition.TS, partition.TSNoBoost, partition.FFD},
			Model:        overhead.PaperModel(),
			Seed:         7,
		})
		once("boost", func() {
			fmt.Println("\n=== Ablation: split-part priority boosting ===")
			fmt.Print(r.Table())
			fmt.Println("(neither variant dominates universally: boosted parts migrate")
			fmt.Println(" predictably but steal from every local task; plain-RM parts")
			fmt.Println(" interfere less but push jitter downstream)")
		})
		// Both variants extend FFD by a splitting fallback, so both
		// must dominate FFD; the boost comparison itself is reported,
		// not asserted.
		if r.WeightedScore("FP-TS") < r.WeightedScore("FFD") ||
			r.WeightedScore("FP-TS-noboost") < r.WeightedScore("FFD") {
			b.Fatal("a splitting variant fell below plain FFD")
		}
	}
}

// BenchmarkExtensionEDF regenerates the EDF-extension comparison
// (paper §2: the runtime "can be easily extended to support … EDF
// scheduling"): EDF-WM vs EDF-FFD vs FP-TS acceptance with measured
// overheads.
func BenchmarkExtensionEDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Run(experiment.Config{
			Cores: 4, Tasks: 12, SetsPerPoint: 40,
			Utilizations: []float64{3.2, 3.4, 3.6, 3.8, 3.9},
			Algorithms:   []partition.Algorithm{partition.WM, partition.EDFFFD, partition.TS},
			Model:        overhead.PaperModel(),
			Seed:         17,
		})
		once("edf", func() {
			fmt.Println("\n=== Extension: EDF semi-partitioned scheduling ===")
			fmt.Print(r.Table())
		})
		if r.WeightedScore("EDF-WM") < r.WeightedScore("EDF-FFD") {
			b.Fatal("EDF-WM should dominate EDF-FFD")
		}
	}
}

// BenchmarkMixedPolicySweep runs the FP-vs-EDF acceptance comparison
// as a single mixed-policy paired sweep — one config, every algorithm
// admitted through its policy's analyzer, every accepted assignment
// simulated under its own policy. Before the Analyzer layer this took
// two separate runs.
func BenchmarkMixedPolicySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Run(experiment.Config{
			Cores: 4, Tasks: 12, SetsPerPoint: 30,
			Utilizations: []float64{3.0, 3.4, 3.8},
			Algorithms:   []partition.Algorithm{partition.TS, partition.WM, partition.FFD, partition.EDFFFD},
			Model:        overhead.PaperModel(),
			Seed:         23,
			SimHorizon:   timeq.Second,
		})
		once("mixed", func() {
			fmt.Println("\n=== Mixed-policy paired sweep: FP-TS vs EDF-WM vs FFD vs EDF-FFD ===")
			fmt.Print(r.Table())
		})
		if v := r.TotalSimViolations(); v != 0 {
			b.Fatalf("%d simulation violations in mixed sweep", v)
		}
		if r.WeightedScore("FP-TS") < r.WeightedScore("FFD") {
			b.Fatal("FP-TS should dominate FFD in the mixed sweep")
		}
	}
}

// BenchmarkPartitionProbes measures admission speed across all nine
// partitioning algorithms on a mixed batch of task sets under the
// paper overhead model. This is the regression guard for the
// incremental admission-context layer (warm-started fixed points,
// per-core caches) and for the partitioners' probe counts: ns/set is
// the time to run all nine algorithms on one set and probes/set the
// placement probes they take, both lower-is-better. probes/s, taken
// from the contexts' flushed statistics, is the raw probe rate; it
// falls when a change removes cheap probes (rejections a placement no
// longer needs) even as each set gets faster, so read it beside the
// per-set figures, never alone.
func BenchmarkPartitionProbes(b *testing.B) {
	algs := []partition.Algorithm{
		partition.TS, partition.FFD, partition.WFD, partition.BFD,
		partition.SPA1, partition.SPA2,
		partition.WM, partition.EDFFFD, partition.EDFWFD,
	}
	var sets []*task.Set
	for _, u := range []float64{3.0, 3.4, 3.7} {
		sets = append(sets, taskgen.New(taskgen.Config{N: 12, TotalUtilization: u, Seed: int64(1000 * u)}).Batch(4)...)
	}
	model := overhead.PaperModel()
	coll := &analysis.Collector{}
	opts := partition.Options{Stats: coll}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, set := range sets {
			for _, alg := range algs {
				_, _ = alg.PartitionOpts(set.Clone(), 4, model, opts) //nolint:errcheck // rejections are expected at high U
			}
		}
	}
	b.StopTimer()
	delta := coll.Snapshot()
	once("probes", func() {
		fmt.Printf("\n=== Partition probe statistics (paper model) ===\n  %v\n", delta)
	})
	if delta.Probes == 0 {
		b.Fatal("no admission probes recorded")
	}
	runs := float64(b.N * len(sets))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/runs, "ns/set")
	b.ReportMetric(float64(delta.Probes)/runs, "probes/set")
	b.ReportMetric(float64(delta.Probes)/b.Elapsed().Seconds(), "probes/s")
	b.ReportMetric(delta.MeanFPIterations(), "fp-iters/solve")
}

// BenchmarkSimulatorThroughput measures raw engine speed: simulated
// kernel events per wall second on a loaded 4-core assignment.
func BenchmarkSimulatorThroughput(b *testing.B) {
	set := taskgen.New(taskgen.Config{N: 16, TotalUtilization: 3.2, Seed: 5}).Next()
	a, err := partition.TS.Partition(set, 4, overhead.PaperModel())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		res, err := sched.Run(a, sched.Config{Model: overhead.PaperModel(), Horizon: timeq.Second})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Stats.Releases + res.Stats.Finishes + res.Stats.Preemptions + res.Stats.Migrations
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
