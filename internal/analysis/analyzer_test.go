package analysis

import (
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

func TestForPolicy(t *testing.T) {
	if ForPolicy(task.FixedPriority) != FixedPriorityRTA {
		t.Fatal("FixedPriority must map to FixedPriorityRTA")
	}
	if ForPolicy(task.EDF) != EDFDemand {
		t.Fatal("EDF must map to EDFDemand")
	}
	if FixedPriorityRTA.Policy() != task.FixedPriority || EDFDemand.Policy() != task.EDF {
		t.Fatal("analyzer policy declarations wrong")
	}
}

// twoTaskAssignment builds a trivially schedulable one-core assignment.
func twoTaskAssignment() *task.Assignment {
	t1 := &task.Task{ID: 1, WCET: 1 * timeq.Millisecond, Period: 10 * timeq.Millisecond, Priority: 1}
	t2 := &task.Task{ID: 2, WCET: 2 * timeq.Millisecond, Period: 20 * timeq.Millisecond, Priority: 2}
	a := task.NewAssignment(1)
	a.Place(t1, 0)
	a.Place(t2, 0)
	return a
}

// The policy-generic Schedulable dispatches on the assignment's stamp
// to the analyzer of that policy, normalizing the model as the
// analyzers do.
func TestAnalyzerMatchesLegacyEntryPoints(t *testing.T) {
	a := twoTaskAssignment()
	for _, m := range []*overhead.Model{nil, overhead.Zero(), overhead.PaperModel()} {
		for _, an := range []Analyzer{FixedPriorityRTA, EDFDemand} {
			a.Policy = an.Policy()
			if Schedulable(a, m) != an.Schedulable(a, overhead.Normalize(m)) {
				t.Fatalf("Schedulable disagrees with the %v analyzer", an.Policy())
			}
		}
	}
	a.Policy = task.FixedPriority
	if !Schedulable(a, nil) {
		t.Fatal("trivial set must be FP-schedulable")
	}
	a.Policy = task.EDF
	if !Schedulable(a, nil) {
		t.Fatal("trivial set must be EDF-schedulable (no splits, U ≪ 1)")
	}
}

// CoreSchedulable probes a single core and accepts nil models.
func TestAnalyzerCoreSchedulable(t *testing.T) {
	a := twoTaskAssignment()
	for _, an := range []Analyzer{FixedPriorityRTA, EDFDemand} {
		if !an.CoreSchedulable(a, 0, nil) {
			t.Fatalf("%v: trivial core must fit", an.Policy())
		}
	}
	// Overload the core: a second task with U close to 1.
	heavy := &task.Task{ID: 3, WCET: 9 * timeq.Millisecond, Period: 10 * timeq.Millisecond, Priority: 3}
	a.Place(heavy, 0)
	for _, an := range []Analyzer{FixedPriorityRTA, EDFDemand} {
		if an.CoreSchedulable(a, 0, nil) {
			t.Fatalf("%v: overloaded core (U > 1) must not fit", an.Policy())
		}
	}
}

// An EDF assignment with windowless splits is rejected by the EDF
// analyzer regardless of load.
func TestEDFAnalyzerRequiresWindows(t *testing.T) {
	t1 := &task.Task{ID: 1, WCET: 2 * timeq.Millisecond, Period: 100 * timeq.Millisecond, Priority: 1}
	a := task.NewAssignment(2)
	a.Splits = append(a.Splits, &task.Split{
		Task: t1,
		Parts: []task.Part{
			{Core: 0, Budget: 1 * timeq.Millisecond},
			{Core: 1, Budget: 1 * timeq.Millisecond},
		},
	})
	if EDFDemand.Schedulable(a, nil) {
		t.Fatal("windowless split must fail EDF admission")
	}
}

// A nil model means zero overheads: a harmonic core at exactly U = 1
// passes with nil and Zero() but not with the paper model, under
// both policies.
func TestSchedulableNilModel(t *testing.T) {
	full := task.NewAssignment(1)
	full.Place(&task.Task{ID: 1, WCET: 5 * timeq.Millisecond, Period: 10 * timeq.Millisecond, Priority: 1}, 0)
	full.Place(&task.Task{ID: 2, WCET: 10 * timeq.Millisecond, Period: 20 * timeq.Millisecond, Priority: 2}, 0)
	for _, p := range []task.Policy{task.FixedPriority, task.EDF} {
		full.Policy = p
		if !Schedulable(full, nil) {
			t.Errorf("%v: nil model should mean zero overheads", p)
		}
		if !Schedulable(full, overhead.Zero()) {
			t.Errorf("%v: U = 1 core must pass with zero overheads", p)
		}
		if Schedulable(full, overhead.PaperModel()) {
			t.Errorf("%v: U = 1 core must fail with paper overheads", p)
		}
	}
}
