// Package cli implements the three command-line tools (spsim, spexp,
// spmeasure) as testable functions: each takes an argument vector and
// an output writer, parses its own flag set, and returns an error
// instead of exiting, so the whole surface is exercised by unit tests
// and the main packages stay one line long.
package cli

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/taskgen"
	"repro/internal/timeq"
	"repro/internal/trace"
)

// AlgorithmByName maps the CLI names to algorithms (the shared
// partition.ByName lookup).
func AlgorithmByName(name string) (partition.Algorithm, error) {
	return partition.ByName(name)
}

// IsEDF reports whether the algorithm's assignments need EDF
// dispatching in the simulator.
func IsEDF(alg partition.Algorithm) bool {
	return alg.Policy() == task.EDF
}

// modelFromFlags resolves -overheads/-model/-scale.
func modelFromFlags(ovName, modelFile string, scale float64) (*overhead.Model, error) {
	var model *overhead.Model
	switch {
	case modelFile != "":
		m, err := overhead.LoadModel(modelFile)
		if err != nil {
			return nil, err
		}
		model = m
	case ovName == "paper":
		model = overhead.PaperModel()
	case ovName == "zero":
		model = overhead.Zero()
	default:
		return nil, fmt.Errorf("unknown overhead model %q (zero|paper)", ovName)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("non-positive overhead scale %v", scale)
	}
	if scale != 1 {
		model = model.Scale(scale)
	}
	return model, nil
}

// Sim is the spsim entry point.
func Sim(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("spsim", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		tasks    = fs.Int("tasks", 12, "tasks per set")
		util     = fs.Float64("util", 3.4, "total utilization of the set")
		cores    = fs.Int("cores", 4, "number of cores")
		algName  = fs.String("alg", "fpts", "partitioning algorithm")
		ovName   = fs.String("overheads", "paper", "overhead model: zero|paper")
		modelF   = fs.String("model", "", "custom overhead model JSON file")
		scale    = fs.Float64("scale", 1, "scale every overhead")
		horizon  = fs.Duration("horizon", 2*time.Second, "simulated duration")
		jitter   = fs.Duration("jitter", 0, "sporadic arrival jitter")
		seed     = fs.Int64("seed", 1, "generator seed")
		timeline = fs.Bool("timeline", false, "print the event timeline (first 5ms)")
		gantt    = fs.Bool("gantt", false, "print a bucketed per-core gantt chart (first 50ms)")
		logAll   = fs.Bool("log", false, "print the raw event log")
		rep      = fs.Bool("report", false, "print the bound-vs-observed report")
		demo     = fs.String("demo", "", "named demo: figure1")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *demo == "figure1" {
		return Figure1(w)
	}
	if *demo != "" {
		return fmt.Errorf("unknown demo %q", *demo)
	}
	alg, err := AlgorithmByName(*algName)
	if err != nil {
		return err
	}
	model, err := modelFromFlags(*ovName, *modelF, *scale)
	if err != nil {
		return err
	}

	set := taskgen.New(taskgen.Config{N: *tasks, TotalUtilization: *util, Seed: *seed}).Next()
	fmt.Fprintf(w, "task set: %d tasks, ΣU = %.3f\n", set.Len(), set.TotalUtilization())
	a, err := alg.Partition(set, *cores, model)
	if err != nil {
		return fmt.Errorf("%s: unschedulable: %w", alg.Name(), err)
	}
	fmt.Fprintf(w, "%s admitted the set:\n%s", alg.Name(), a)

	buf := &trace.Buffer{}
	cfg := sched.Config{
		Model:         model,
		Horizon:       timeq.FromDuration(*horizon),
		Recorder:      buf,
		ArrivalJitter: timeq.FromDuration(*jitter),
		Seed:          *seed,
	}
	// The assignment carries its policy; no need to restate it.
	res, err := sched.Run(a, cfg)
	if err != nil {
		return err
	}
	writeSimResult(w, res, *cores)
	if *rep && !IsEDF(alg) {
		r, err := report.New(a, model, res)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\nper-task analysis bound vs simulated response:")
		fmt.Fprint(w, r.ResponseTable())
		if v := r.Violations(); len(v) > 0 {
			return fmt.Errorf("%d bound violations", len(v))
		}
	}
	if *timeline {
		fmt.Fprintln(w, "\ntimeline (first 5ms):")
		if err := buf.Timeline(w, 0, 5*timeq.Millisecond); err != nil {
			return err
		}
	}
	if *gantt {
		fmt.Fprintln(w)
		if err := buf.Gantt(w, 0, 50*timeq.Millisecond, 100); err != nil {
			return err
		}
	}
	if *logAll {
		if err := buf.WriteLog(w); err != nil {
			return err
		}
	}
	if !res.Schedulable() {
		return fmt.Errorf("%d deadline misses; first: %v", len(res.Misses), res.Misses[0])
	}
	return nil
}

func writeSimResult(w io.Writer, res *sched.Result, cores int) {
	s := res.Stats
	fmt.Fprintf(w, "\nsimulated %v: %d releases, %d finishes, %d preemptions, %d migrations\n",
		s.Horizon, s.Releases, s.Finishes, s.Preemptions, s.Migrations)
	fmt.Fprintf(w, "overhead: %v total (%.4f%% of core time)\n",
		s.TotalOverhead(), 100*s.OverheadRatio(cores))
	var cats []string
	for c := range s.OverheadTime {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		fmt.Fprintf(w, "  %-7s %v\n", c, s.OverheadTime[c])
	}
	for c, cs := range s.PerCore {
		fmt.Fprintf(w, "  core %d: %.3f busy (exec %v, overhead %v)\n",
			c, cs.Utilization(s.Horizon), cs.Exec, cs.Overhead)
	}
	if res.Schedulable() {
		fmt.Fprintln(w, "all deadlines met")
	} else {
		fmt.Fprintf(w, "%d DEADLINE MISSES; worst tardiness %v\n", len(res.Misses), res.WorstTardiness())
	}
}

// Figure1 reproduces the paper's Figure 1 scenario: τ2 preempted by
// τ1 with every overhead segment visible.
func Figure1(w io.Writer) error {
	t1 := &task.Task{ID: 1, Name: "τ1", WCET: 2 * timeq.Millisecond, Period: 10 * timeq.Millisecond, WSS: 256 << 10}
	t2 := &task.Task{ID: 2, Name: "τ2", WCET: 5 * timeq.Millisecond, Period: 20 * timeq.Millisecond, WSS: 256 << 10}
	set := task.NewSet(t1, t2)
	set.AssignRM()
	a := task.NewAssignment(1)
	a.Place(t1, 0)
	a.Place(t2, 0)

	buf := &trace.Buffer{}
	res, err := sched.Run(a, sched.Config{
		Model:    overhead.PaperModel(),
		Horizon:  20 * timeq.Millisecond,
		Recorder: buf,
		Offsets:  map[task.ID]timeq.Time{1: 2 * timeq.Millisecond},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1 — run-time overhead anatomy (paper overhead model)")
	fmt.Fprintln(w, "τ2 executes from time a; τ1 released at b preempts it; the kernel")
	fmt.Fprintln(w, "segments between b..e and f..i are the measured overheads.")
	fmt.Fprintln(w)
	if err := buf.Timeline(w, 0, 12*timeq.Millisecond); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, buf.Summary())
	fmt.Fprintf(w, "max response: τ1 %v, τ2 %v\n", res.MaxResponse[1], res.MaxResponse[2])
	return nil
}
