package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

func ms(x int64) timeq.Time { return timeq.Time(x) * timeq.Millisecond }

// oneCore builds a CoreSet of unsplit tasks with RM priorities.
func oneCore(m *overhead.Model, tasks ...*task.Task) *CoreSet {
	s := task.NewSet(tasks...)
	s.AssignRM()
	var es []*Entity
	for _, t := range s.Tasks {
		es = append(es, &Entity{Task: t, C: t.WCET, T: t.Period, D: t.EffectiveDeadline(), LocalPriority: t.Priority})
	}
	return NewCoreSet(es, len(es), m)
}

// Classic textbook RTA example: C=(1,2,3), T=(4,6,12) → R=(1,3,10).
func TestResponseTimeTextbook(t *testing.T) {
	z := overhead.Zero()
	cs := oneCore(z,
		&task.Task{ID: 1, WCET: ms(1), Period: ms(4)},
		&task.Task{ID: 2, WCET: ms(2), Period: ms(6)},
		&task.Task{ID: 3, WCET: ms(3), Period: ms(12)},
	)
	want := map[task.ID]timeq.Time{1: ms(1), 2: ms(3), 3: ms(10)}
	for _, e := range cs.Entities {
		r, ok := cs.ResponseTime(e, z)
		if !ok {
			t.Fatalf("%v unschedulable", e)
		}
		if r != want[e.Task.ID] {
			t.Errorf("R(τ%d) = %v, want %v", e.Task.ID, r, want[e.Task.ID])
		}
	}
	if !cs.CoreSchedulable(z) {
		t.Error("core should be schedulable")
	}
}

func TestResponseTimeUnschedulable(t *testing.T) {
	z := overhead.Zero()
	// U = 0.5 + 0.6 > 1.
	cs := oneCore(z,
		&task.Task{ID: 1, WCET: ms(2), Period: ms(4)},
		&task.Task{ID: 2, WCET: ms(6), Period: ms(10)},
	)
	if cs.CoreSchedulable(z) {
		t.Fatal("overloaded core accepted")
	}
	// The highest-priority task alone is still fine.
	hi := cs.Entities[0]
	if r, ok := cs.ResponseTime(hi, z); !ok || r != ms(2) {
		t.Fatalf("R(hi) = %v ok=%v", r, ok)
	}
}

// TestFPVerdictIsTheLeastFixedPoint is a one-core case whose cold
// solve runs past 10 000 iterations, where an iteration cap once made
// the verdict depend on where the solve started: warm-started from a
// full test's converged values the writer and the snapshot admitted,
// cold they and the stateless test refused. The probed task (1174 ns every
// 544 474 ns) sits between one that keeps the core 99.7 % busy (1176 ns
// every 1179 ns) and a long one (51 188 ns every second), whose
// response time climbs a few ns per step to 132.2 ms. All three must
// admit, with or without a full test before the probe, and the cold
// solve must end within its bound (fpFixedPoint).
func TestFPVerdictIsTheLeastFixedPoint(t *testing.T) {
	z := overhead.Zero()
	probe := &task.Task{ID: 2, WCET: 1174, Period: 544474, Priority: 2}
	var clone *task.Assignment
	for _, converge := range []bool{false, true} {
		a := task.NewAssignment(1)
		a.Policy = task.FixedPriority
		ctx := FixedPriorityRTA.NewContext(a, z)
		ctx.Place(&task.Task{ID: 1, WCET: 1176, Period: 1179, Priority: 1}, 0)
		ctx.Place(&task.Task{ID: 3, WCET: 51188, Period: timeq.Second, Priority: 3}, 0)
		if converge {
			ctx.Schedulable()
		}
		snap := ctx.Fork()
		onWriter := ctx.TryPlace(probe, 0)
		ctx.Rollback()
		onReader := snap.TryPlace(probe, 0)
		clone = snap.CloneAssignment()
		clone.Place(probe, 0)
		oracle := FixedPriorityRTA.CoreSchedulable(clone, 0, z)
		if !onWriter || !onReader || !oracle {
			t.Fatalf("converged %v: writer %v, snapshot %v, stateless %v; want all to admit", converge, onWriter, onReader, oracle)
		}
	}

	cs := BuildCore(clone, 0, z)
	lowest := cs.Entities[len(cs.Entities)-1]
	r, ok, iters := cs.responseTime(lowest, z, 0)
	// Σⱼ⌈(limit + Jⱼ)/Tⱼ⌉ + 2 over the two interferers.
	bound := int(timeq.CeilDiv(lowest.D, 1179) + timeq.CeilDiv(lowest.D, 544474) + 2)
	if !ok || r != 132233102 || iters <= 10000 || iters > bound {
		t.Fatalf("cold solve of %v: R = %d ok = %v in %d iterations; want 132233102 in more than 10000 and at most %d", lowest, r, ok, iters, bound)
	}
}

func TestDeadlineEqualsWCETBoundary(t *testing.T) {
	z := overhead.Zero()
	// Single task with D = C is exactly schedulable.
	cs := oneCore(z, &task.Task{ID: 1, WCET: ms(5), Period: ms(10), Deadline: ms(5)})
	if !cs.CoreSchedulable(z) {
		t.Fatal("D = C should be schedulable alone")
	}
	// D < C is not.
	cs2 := oneCore(z, &task.Task{ID: 1, WCET: ms(5), Period: ms(10), Deadline: ms(4)})
	_ = cs2.Entities[0] // Validate() would reject; analysis must too.
	if cs2.CoreSchedulable(z) {
		t.Fatal("D < C accepted")
	}
}

func TestOverheadInflationMakesBorderlineFail(t *testing.T) {
	// Two tasks at exactly U=1 are RM-schedulable here without
	// overheads (harmonic periods), but any positive overhead tips
	// them over.
	mk := func() *CoreSet {
		return oneCore(overhead.Zero(),
			&task.Task{ID: 1, WCET: ms(5), Period: ms(10)},
			&task.Task{ID: 2, WCET: ms(10), Period: ms(20)},
		)
	}
	z := overhead.Zero()
	if !mk().CoreSchedulable(z) {
		t.Fatal("harmonic U=1 set should be schedulable with zero overhead")
	}
	if mk().CoreSchedulable(overhead.PaperModel()) {
		t.Fatal("U=1 set cannot absorb nonzero overhead")
	}
}

func TestInflatedCostCharges(t *testing.T) {
	m := overhead.PaperModel()
	tk := &task.Task{ID: 1, WCET: ms(1), Period: ms(10), WSS: 0}
	normal := &Entity{Task: tk, C: ms(1), T: ms(10), D: ms(10), LocalPriority: 1}
	cs := NewCoreSet([]*Entity{normal}, 1, m)
	got := cs.InflatedCost(normal, m)
	// Arrival: rls + θdel + δadd + sch + victim δadd + δdel + cnt1.
	// Departure: sch + cnt2 + θadd + δdel. No cache (WSS 0).
	dAdd := m.QueueOpCost(overhead.ReadyAdd, 1, false)
	dDel := m.QueueOpCost(overhead.ReadyDelete, 1, false)
	want := ms(1) +
		m.Release + m.QueueOpCost(overhead.SleepDelete, 1, false) + dAdd + m.Sched + dAdd + dDel + m.CtxSwitch +
		m.Sched + m.CtxSwitch + m.QueueOpCost(overhead.SleepAdd, 1, false) + dDel
	if got != want {
		t.Fatalf("inflated = %v, want %v", got, want)
	}

	// Migration-in/out entity pays remote ready add on departure and
	// no release path on arrival.
	body := &Entity{Task: tk, C: ms(1), T: ms(10), D: ms(10), LocalPriority: 0, MigrIn: true, MigrOut: true}
	cs2 := NewCoreSet([]*Entity{body}, 1, m)
	got2 := cs2.InflatedCost(body, m)
	want2 := ms(1) +
		m.Sched + dAdd + dDel + m.CtxSwitch + // arrival (no CPMD: WSS 0)
		m.Sched + m.CtxSwitch + m.QueueOpCost(overhead.ReadyAdd, 1, true) + dDel
	if got2 != want2 {
		t.Fatalf("migratory inflated = %v, want %v", got2, want2)
	}
}

func TestBlockingTerm(t *testing.T) {
	m := overhead.PaperModel()
	hi := &Entity{Task: &task.Task{ID: 1, WCET: ms(1), Period: ms(10)}, C: ms(1), T: ms(10), D: ms(10), LocalPriority: 1}
	lo := &Entity{Task: &task.Task{ID: 2, WCET: ms(1), Period: ms(20)}, C: ms(1), T: ms(20), D: ms(20), LocalPriority: 2}
	cs := NewCoreSet([]*Entity{hi, lo}, 2, m)
	bHi := cs.Blocking(hi, m)
	bLo := cs.Blocking(lo, m)
	if bHi == 0 || bLo == 0 {
		t.Fatal("blocking should be positive under the paper model")
	}
	// The higher-priority entity suffers the lp release batch on top.
	if bHi <= bLo {
		t.Errorf("B(hi)=%v should exceed B(lo)=%v", bHi, bLo)
	}
	// Zero model: no blocking.
	zcs := NewCoreSet([]*Entity{hi, lo}, 2, overhead.Zero())
	if zcs.Blocking(hi, overhead.Zero()) != 0 {
		t.Error("zero model should have zero blocking")
	}
}

func TestLiuLaylandBound(t *testing.T) {
	if LiuLaylandBound(1) != 1.0 || LiuLaylandBound(0) != 1.0 {
		t.Error("n≤1 bound should be 1")
	}
	if math.Abs(LiuLaylandBound(2)-0.8284) > 1e-4 {
		t.Errorf("Θ(2) = %v", LiuLaylandBound(2))
	}
	// Monotonically decreasing towards ln 2.
	prev := 1.0
	for n := 1; n <= 100; n++ {
		b := LiuLaylandBound(n)
		if b > prev+1e-12 {
			t.Fatalf("bound not decreasing at n=%d", n)
		}
		prev = b
	}
	if math.Abs(prev-math.Ln2) > 0.01 {
		t.Errorf("Θ(100) = %v, should approach ln2", prev)
	}
}

// A split assignment: τ3 split across both cores; the chain must be
// schedulable and the tail's jitter must reflect the body's response.
func TestSplitChainSchedulable(t *testing.T) {
	t1 := &task.Task{ID: 1, WCET: ms(4), Period: ms(10)}
	t2 := &task.Task{ID: 2, WCET: ms(4), Period: ms(10)}
	t3 := &task.Task{ID: 3, WCET: ms(8), Period: ms(20)}
	s := task.NewSet(t1, t2, t3)
	s.AssignRM()

	a := task.NewAssignment(2)
	a.Place(t1, 0)
	a.Place(t2, 1)
	a.Splits = append(a.Splits, &task.Split{Task: t3, Parts: []task.Part{
		{Core: 0, Budget: ms(5)},
		{Core: 1, Budget: ms(3)},
	}})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	z := overhead.Zero()
	if !FixedPriorityRTA.Schedulable(a, z) {
		t.Fatal("split assignment should be schedulable with zero overhead")
	}
	rts, ok := ResponseTimes(a, z)
	if !ok {
		t.Fatal("ResponseTimes disagrees with FixedPriorityRTA.Schedulable")
	}
	// Parts run at highest local priority: body R = 5ms, so the tail
	// entity must carry J = 5ms.
	cores := BuildCores(a, z)
	if !cores.Schedulable(z) {
		t.Fatal("rebuild not schedulable")
	}
	var tail *Entity
	for _, ch := range cores.Chains {
		tail = ch.Entities[len(ch.Entities)-1]
	}
	if tail.Jitter != ms(5) {
		t.Errorf("tail jitter = %v, want 5ms", tail.Jitter)
	}
	_ = rts
}

func TestSplitChainUnschedulableTightDeadline(t *testing.T) {
	// Body consumes nearly the whole deadline; the tail cannot fit.
	t1 := &task.Task{ID: 1, WCET: ms(9), Period: ms(10)}
	t3 := &task.Task{ID: 3, WCET: ms(12), Period: ms(20), Deadline: ms(12)}
	s := task.NewSet(t1, t3)
	s.AssignRM()
	a := task.NewAssignment(2)
	a.Place(t1, 0)
	a.Splits = append(a.Splits, &task.Split{Task: t3, Parts: []task.Part{
		{Core: 0, Budget: ms(11)},
		{Core: 1, Budget: ms(1)},
	}})
	z := overhead.Zero()
	// Part 0 at highest priority on core 0 takes 11ms; τ1 then cannot
	// meet its own 10ms deadline, and the chain leaves the tail 1ms
	// for 1ms of work with J=11ms > D−C. Either way: unschedulable.
	if FixedPriorityRTA.Schedulable(a, z) {
		t.Fatal("infeasible chain accepted")
	}
}

// Property: adding a task to a core never decreases anyone's response
// time (interference monotonicity).
func TestQuickRTAMonotonicity(t *testing.T) {
	z := overhead.Zero()
	f := func(c1Raw, c2Raw, cXRaw uint8) bool {
		c1 := timeq.Time(c1Raw%9+1) * timeq.Millisecond
		c2 := timeq.Time(c2Raw%9+1) * timeq.Millisecond
		cx := timeq.Time(cXRaw%5+1) * timeq.Millisecond
		base := oneCore(z,
			&task.Task{ID: 1, WCET: c1, Period: ms(20)},
			&task.Task{ID: 2, WCET: c2, Period: ms(40)},
		)
		more := oneCore(z,
			&task.Task{ID: 1, WCET: c1, Period: ms(20)},
			&task.Task{ID: 2, WCET: c2, Period: ms(40)},
			&task.Task{ID: 3, WCET: cx, Period: ms(10)}, // highest priority
		)
		// Find τ2 in both and compare response times.
		var rBase, rMore timeq.Time
		var okBase, okMore bool
		for _, e := range base.Entities {
			if e.Task.ID == 2 {
				rBase, okBase = base.ResponseTime(e, z)
			}
		}
		for _, e := range more.Entities {
			if e.Task.ID == 2 {
				rMore, okMore = more.ResponseTime(e, z)
			}
		}
		if !okBase {
			return true // base already unschedulable; nothing to compare
		}
		return !okMore || rMore >= rBase
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: zero-overhead schedulability is implied by paper-overhead
// schedulability (overheads only hurt).
func TestQuickOverheadOnlyHurts(t *testing.T) {
	p := overhead.PaperModel()
	z := overhead.Zero()
	f := func(c1Raw, c2Raw, c3Raw uint8) bool {
		tasks := []*task.Task{
			{ID: 1, WCET: timeq.Time(c1Raw%40+1) * timeq.Millisecond / 4, Period: ms(10)},
			{ID: 2, WCET: timeq.Time(c2Raw%40+1) * timeq.Millisecond / 4, Period: ms(20)},
			{ID: 3, WCET: timeq.Time(c3Raw%40+1) * timeq.Millisecond / 4, Period: ms(40)},
		}
		withOv := oneCore(p, tasks...)
		if !withOv.CoreSchedulable(p) {
			return true
		}
		noOv := oneCore(z,
			&task.Task{ID: 1, WCET: tasks[0].WCET, Period: ms(10)},
			&task.Task{ID: 2, WCET: tasks[1].WCET, Period: ms(20)},
			&task.Task{ID: 3, WCET: tasks[2].WCET, Period: ms(40)},
		)
		return noOv.CoreSchedulable(z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
