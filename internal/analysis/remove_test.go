package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// Removal is the one context mutation that shrinks the system, so its
// invalidation path gets its own differential suite: after every
// Remove, the next probes and full tests must still answer exactly
// like the stateless analyzer on the shrunken assignment — chain
// jitters and verdict caches must never leak state from the larger
// system.

// TestContextRemoveBasics pins the structural semantics.
func TestContextRemoveBasics(t *testing.T) {
	m := overhead.PaperModel()
	t1 := &task.Task{ID: 1, WCET: 2 * timeq.Millisecond, Period: 10 * timeq.Millisecond, Priority: 1}
	t2 := &task.Task{ID: 2, WCET: 3 * timeq.Millisecond, Period: 20 * timeq.Millisecond, Priority: 2}
	t3 := &task.Task{ID: 3, WCET: 4 * timeq.Millisecond, Period: 40 * timeq.Millisecond, Priority: 3}
	for _, an := range []Analyzer{FixedPriorityRTA, EDFDemand} {
		a := task.NewAssignment(2)
		ctx := an.NewContext(a, m)
		ctx.Place(t1, 0)
		ctx.Place(t2, 0)
		ctx.Place(t3, 1)
		if !ctx.Remove(2) {
			t.Fatal("Remove(2) must find the task")
		}
		if ctx.Remove(2) {
			t.Fatal("second Remove(2) must report absence")
		}
		if ctx.Remove(99) {
			t.Fatal("Remove(99) must report absence")
		}
		if len(a.Normal[0]) != 1 || a.Normal[0][0].ID != 1 {
			t.Fatalf("core 0 after removal: %v", a.Normal[0])
		}
		if !ctx.Schedulable() {
			t.Fatal("light set must stay schedulable after removal")
		}
	}
}

// TestContextRemoveSplit removes a split task and checks every chain
// core is cleaned up.
func TestContextRemoveSplit(t *testing.T) {
	m := overhead.PaperModel()
	ts := &task.Task{ID: 1, WCET: 4 * timeq.Millisecond, Period: 10 * timeq.Millisecond, Priority: 1}
	tn := &task.Task{ID: 2, WCET: 1 * timeq.Millisecond, Period: 10 * timeq.Millisecond, Priority: 2}
	for _, edf := range []bool{false, true} {
		an := FixedPriorityRTA
		if edf {
			an = EDFDemand
		}
		a := task.NewAssignment(2)
		ctx := an.NewContext(a, m)
		ctx.Place(tn, 0)
		sp := &task.Split{Task: ts, Parts: []task.Part{
			{Core: 0, Budget: 2 * timeq.Millisecond},
			{Core: 1, Budget: 2 * timeq.Millisecond},
		}}
		if edf {
			sp.Windows = []timeq.Time{5 * timeq.Millisecond, 5 * timeq.Millisecond}
		}
		ctx.AddSplit(sp)
		if !ctx.Remove(1) {
			t.Fatal("Remove of the split must succeed")
		}
		if len(a.Splits) != 0 {
			t.Fatalf("split still present: %v", a.Splits)
		}
		if !ctx.Schedulable() {
			t.Fatal("remaining single task must be schedulable")
		}
		if got := a.MaxTasksPerCore(); got != 1 {
			t.Fatalf("MaxTasksPerCore after split removal = %d", got)
		}
	}
}

// TestContextRemoveMatchesStatelessFuzz interleaves removals with the
// probe/commit/rollback mix under the SelfCheck shadow: every verdict
// after a removal must match the stateless path bit for bit, for both
// analyzers, monotone and non-monotone models.
func TestContextRemoveMatchesStatelessFuzz(t *testing.T) {
	withSelfCheck(t, func() {
		rng := rand.New(rand.NewSource(20260730))
		inverted := overhead.PaperModel()
		inverted.Queues.LocalN64[overhead.ReadyAdd] = inverted.Queues.LocalN4[overhead.ReadyAdd] / 2
		models := []*overhead.Model{
			overhead.Zero(),
			overhead.PaperModel(),
			overhead.PaperModel().WithRemotePenalty(4),
			inverted,
		}
		removals := 0
		for round := 0; round < 20; round++ {
			cores := 2 + rng.Intn(3)
			n := 5 + rng.Intn(6)
			util := 0.4*float64(cores) + rng.Float64()*0.5*float64(cores)
			set := randomSet(rng, n, util)
			for _, an := range []Analyzer{FixedPriorityRTA, EDFDemand} {
				for _, m := range models {
					removals += driveRemoveOps(rng, an, m, cores, set.Clone())
				}
			}
		}
		if removals < 100 {
			t.Fatalf("fuzz drove only %d removals; sequences degenerate", removals)
		}
	})
}

// driveRemoveOps admits tasks (whole and split), removes a random
// subset, re-admits removed ones, and checks Schedulable along the
// way; the SelfCheck shadow validates every decision.
func driveRemoveOps(rng *rand.Rand, an Analyzer, m *overhead.Model, cores int, set *task.Set) int {
	a := task.NewAssignment(cores)
	ctx := an.NewContext(a, m)
	present := map[task.ID]*task.Task{}
	removals := 0
	removeRandom := func() {
		if len(present) == 0 {
			return
		}
		ids := make([]task.ID, 0, len(present))
		for id := range present {
			ids = append(ids, id)
		}
		id := ids[rng.Intn(len(ids))]
		if !ctx.Remove(id) {
			panic("Remove of a present task failed")
		}
		delete(present, id)
		removals++
		if rng.Intn(2) == 0 {
			ctx.Schedulable()
		}
	}
	for _, tk := range set.SortedByUtilizationDesc() {
		if rng.Intn(3) == 0 {
			removeRandom()
		}
		if rng.Intn(4) == 0 {
			if sp := randomSplit(rng, tk, cores, an.Policy() == task.EDF); sp != nil {
				c := sp.Parts[rng.Intn(len(sp.Parts))].Core
				if ctx.TrySplit(sp, c) {
					ctx.Commit()
					present[tk.ID] = tk
				} else {
					ctx.Rollback()
				}
				continue
			}
		}
		for c := 0; c < cores; c++ {
			if ctx.TryPlace(tk, c) {
				ctx.Commit()
				present[tk.ID] = tk
				break
			}
			ctx.Rollback()
		}
	}
	// Drain: remove everything in random order, probing in between —
	// the shrink path all the way down to an empty assignment.
	for len(present) > 0 {
		removeRandom()
		if len(present) > 0 && rng.Intn(3) == 0 {
			for id := range present {
				tk := present[id]
				// Re-probe a present task's twin (fresh ID) to force
				// evaluations on the shrunken system.
				twin := *tk
				twin.ID = task.ID(10_000 + int(id))
				ctx.TryPlace(&twin, rng.Intn(cores))
				ctx.Rollback()
				break
			}
		}
	}
	ctx.Schedulable()
	ctx.Flush()
	return removals
}

// TestCollectorScoping checks SetCollector: the attached sink sees
// exactly the flushed counters.
func TestCollectorScoping(t *testing.T) {
	coll := &Collector{}
	rng := rand.New(rand.NewSource(41))
	set := randomSet(rng, 8, 2.5)
	a := task.NewAssignment(4)
	ctx := FixedPriorityRTA.NewContext(a, overhead.PaperModel())
	ctx.SetCollector(coll)
	for _, tk := range set.SortedByUtilizationDesc() {
		for c := 0; c < 4; c++ {
			if ctx.TryPlace(tk, c) {
				ctx.Commit()
				break
			}
			ctx.Rollback()
		}
	}
	local := ctx.Stats()
	ctx.Flush()
	got := coll.Snapshot()
	if got != local {
		t.Fatalf("collector %+v != flushed local stats %+v", got, local)
	}
	// A second collector-less flush must leave the first untouched.
	ctx.SetCollector(nil)
	if ctx.TryPlace(set.Tasks[0], 0) {
		ctx.Rollback()
	} else {
		ctx.Rollback()
	}
	ctx.Flush()
	if coll.Snapshot() != got {
		t.Fatal("detached collector must stop receiving flushes")
	}
}
