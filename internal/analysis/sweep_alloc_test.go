package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
)

// TestSweepInnerLoopAllocFree guards the Section-4 sweep engine's
// per-algorithm inner loop: one long-lived context rebound to a
// recycled assignment with Reset, then a full probe-all-cores packing
// pass. After warmup every piece — entity slabs, probe scratch,
// per-core verdicts — recycles and every probe runs the engine, so the
// steady-state loop must not allocate at all.
func TestSweepInnerLoopAllocFree(t *testing.T) {
	for _, pol := range []task.Policy{task.FixedPriority, task.EDF} {
		m := overhead.PaperModel()
		a := task.NewAssignment(4)
		a.Policy = pol
		ctx := ForPolicy(pol).NewContext(a, m)
		rng := rand.New(rand.NewSource(7))
		tasks := make([]*task.Task, 10)
		for i := range tasks {
			tasks[i] = probeTask(rng, int64(i+1))
		}
		assertZeroAllocs(t, pol.String()+"/sweep inner loop", func() {
			// Recycle the assignment the way partition.Arena does,
			// then rebind the context to it.
			for c := range a.Normal {
				a.Normal[c] = a.Normal[c][:0]
			}
			a.Splits = a.Splits[:0]
			ctx.Reset(a, m)
			for _, tk := range tasks {
				for c := 0; c < 4; c++ {
					if ctx.TryPlace(tk, c) {
						ctx.Commit()
						break
					}
					ctx.Rollback()
				}
			}
		})
	}
}

// TestEDFWriterProbeAllocFree guards every way the EDF writer context
// runs the demand test. One recycled packing pass exercises them —
// TryPlace + Commit, TryPlace + Rollback on every core and then Place
// on one of them (an unprobed Place after a rolled-back probe),
// TrySplit + Rollback,
// Schedulable — and none of them may allocate: what a passing probe
// leaves behind is one number in the core's record.
func TestEDFWriterProbeAllocFree(t *testing.T) {
	const cores = 4
	m := overhead.PaperModel()
	a := task.NewAssignment(cores)
	a.Policy = task.EDF
	ctx := EDFDemand.NewContext(a, m)
	rng := rand.New(rand.NewSource(11))
	tasks := make([]*task.Task, 12)
	for i := range tasks {
		tasks[i] = probeTask(rng, int64(i+1))
	}
	sp := probeSplit(task.EDF)
	var fits, misses int
	assertZeroAllocs(t, "EDF writer", func() {
		for c := range a.Normal {
			a.Normal[c] = a.Normal[c][:0]
		}
		a.Splits = a.Splits[:0]
		ctx.Reset(a, m)
		fits, misses = 0, 0
		for i, tk := range tasks {
			if i%3 == 2 {
				for c := 0; c < cores; c++ {
					ctx.TryPlace(tk, c)
					ctx.Rollback()
				}
				ctx.Place(tk, i%cores)
				continue
			}
			if ctx.TryPlace(tk, i%cores) {
				ctx.Commit()
				fits++
			} else {
				ctx.Rollback()
				misses++
			}
		}
		if ctx.TrySplit(sp, 1) {
			fits++
		}
		ctx.Rollback()
		if !ctx.Schedulable() {
			misses++
		}
	})
	if fits < 8 || misses > 0 {
		t.Fatalf("degenerate pass: %d probes fit, %d misses (the guard is about passing probes)", fits, misses)
	}
	if s := ctx.Stats(); s.DemandTests == 0 || s.DemandPoints < s.DemandTests {
		t.Fatalf("no demand tests behind the guard: %+v", s)
	}
}
