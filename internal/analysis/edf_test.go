package analysis

import (
	"testing"
	"testing/quick"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// edfCore builds a CoreSet for EDF testing (priorities irrelevant).
func edfCore(m *overhead.Model, tasks ...*task.Task) *CoreSet {
	var es []*Entity
	for _, t := range tasks {
		es = append(es, &Entity{Task: t, C: t.WCET, T: t.Period, D: t.EffectiveDeadline()})
	}
	return NewCoreSet(es, len(es), m)
}

func TestEDFFullUtilizationSchedulable(t *testing.T) {
	z := overhead.Zero()
	// Implicit deadlines at exactly U = 1: EDF-schedulable.
	cs := edfCore(z,
		&task.Task{ID: 1, WCET: ms(2), Period: ms(4)},
		&task.Task{ID: 2, WCET: ms(5), Period: ms(10)},
	)
	if !cs.EDFCoreSchedulable(z) {
		t.Fatal("EDF must schedule U=1 with implicit deadlines")
	}
}

func TestEDFOverloadRejected(t *testing.T) {
	z := overhead.Zero()
	cs := edfCore(z,
		&task.Task{ID: 1, WCET: ms(3), Period: ms(4)},
		&task.Task{ID: 2, WCET: ms(5), Period: ms(10)},
	)
	if cs.EDFCoreSchedulable(z) {
		t.Fatal("U=1.25 accepted")
	}
}

// EDF admits sets RM cannot: C=(2,4), T=(5,7), U≈0.971.
func TestEDFBeatsRM(t *testing.T) {
	z := overhead.Zero()
	t1 := &task.Task{ID: 1, WCET: ms(2), Period: ms(5)}
	t2 := &task.Task{ID: 2, WCET: ms(4), Period: ms(7)}
	if !edfCore(z, t1, t2).EDFCoreSchedulable(z) {
		t.Fatal("EDF should accept U=0.971 implicit-deadline pair")
	}
	// The same set fails RM response-time analysis.
	rm := oneCore(z, t1, t2)
	if rm.CoreSchedulable(z) {
		t.Fatal("RM should reject this set (classic example)")
	}
}

func TestEDFConstrainedDeadlines(t *testing.T) {
	z := overhead.Zero()
	// Demand at t=3 is 2 ≤ 3; at t=4 is 2+2=4 ≤ 4: feasible.
	ok := edfCore(z,
		&task.Task{ID: 1, WCET: ms(2), Period: ms(4), Deadline: ms(3)},
		&task.Task{ID: 2, WCET: ms(2), Period: ms(4), Deadline: ms(4)},
	)
	if !ok.EDFCoreSchedulable(z) {
		t.Fatal("feasible constrained set rejected")
	}
	// Tightening the second deadline to 3 makes t=3 demand 4 > 3.
	bad := edfCore(z,
		&task.Task{ID: 1, WCET: ms(2), Period: ms(4), Deadline: ms(3)},
		&task.Task{ID: 2, WCET: ms(2), Period: ms(4), Deadline: ms(3)},
	)
	if bad.EDFCoreSchedulable(z) {
		t.Fatal("infeasible constrained set accepted")
	}
}

func TestEDFOverheadsOnlyHurt(t *testing.T) {
	p := overhead.PaperModel()
	f := func(c1Raw, c2Raw uint8) bool {
		t1 := &task.Task{ID: 1, WCET: timeq.Time(c1Raw%40+1) * timeq.Millisecond / 4, Period: ms(10)}
		t2 := &task.Task{ID: 2, WCET: timeq.Time(c2Raw%40+1) * timeq.Millisecond / 4, Period: ms(20)}
		withOv := edfCore(p, t1, t2).EDFCoreSchedulable(p)
		if !withOv {
			return true
		}
		return edfCore(overhead.Zero(), t1, t2).EDFCoreSchedulable(overhead.Zero())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEDFEmptyCore(t *testing.T) {
	z := overhead.Zero()
	cs := NewCoreSet(nil, 0, z)
	if !cs.EDFCoreSchedulable(z) {
		t.Fatal("empty core unschedulable?")
	}
}

func TestEDFAssignmentRequiresWindows(t *testing.T) {
	t1 := &task.Task{ID: 1, WCET: ms(6), Period: ms(20)}
	a := task.NewAssignment(2)
	a.Splits = append(a.Splits, &task.Split{Task: t1, Parts: []task.Part{
		{Core: 0, Budget: ms(3)}, {Core: 1, Budget: ms(3)},
	}})
	if EDFDemand.Schedulable(a, overhead.Zero()) {
		t.Fatal("windowless split accepted under EDF")
	}
}

func TestEDFAssignmentWithWindows(t *testing.T) {
	t1 := &task.Task{ID: 1, WCET: ms(4), Period: ms(10)}
	t2 := &task.Task{ID: 2, WCET: ms(6), Period: ms(20)}
	a := task.NewAssignment(2)
	a.Place(t1, 0)
	a.Splits = append(a.Splits, &task.Split{
		Task:    t2,
		Parts:   []task.Part{{Core: 0, Budget: ms(3)}, {Core: 1, Budget: ms(3)}},
		Windows: []timeq.Time{ms(10), ms(10)},
	})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !EDFDemand.Schedulable(a, overhead.Zero()) {
		t.Fatal("feasible windowed assignment rejected")
	}
	// Core 0 demand: t1 (4/10) + part (3 in 10, T=20): at t=10,
	// demand 4+3=7 ≤ 10 ✓. Squeezing the window below the budget is
	// caught by Split.Validate, and overload by the demand test:
	over := task.NewAssignment(2)
	over.Place(t1, 0)
	over.Place(&task.Task{ID: 3, WCET: ms(5), Period: ms(10)}, 0)
	over.Splits = append(over.Splits, &task.Split{
		Task:    t2,
		Parts:   []task.Part{{Core: 0, Budget: ms(3)}, {Core: 1, Budget: ms(3)}},
		Windows: []timeq.Time{ms(10), ms(10)},
	})
	if EDFDemand.Schedulable(over, overhead.Zero()) {
		t.Fatal("overloaded core 0 accepted (U=0.9+0.15)")
	}
}
