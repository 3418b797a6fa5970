package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
)

// engineFixture packs a task set first-fit onto a fresh context and,
// with chains, commits a split on top, then runs the full test so the
// committed jitters are resolved.
func engineFixture(t *testing.T, rng *rand.Rand, pol task.Policy, m *overhead.Model, cores int, chains bool) Context {
	t.Helper()
	a := task.NewAssignment(cores)
	a.Policy = pol
	ctx := ForPolicy(pol).NewContext(a, m)
	set := randomSet(rng, 5*cores, 0.55*float64(cores))
	tasks := set.SortedByUtilizationDesc()
	for _, tk := range tasks[1:] {
		for c := 0; c < cores; c++ {
			if ctx.TryPlace(tk, c) {
				ctx.Commit()
				break
			}
			ctx.Rollback()
		}
	}
	if chains {
		var sp *task.Split
		for sp == nil {
			sp = randomSplit(rng, tasks[0], cores, pol == task.EDF)
		}
		ctx.AddSplit(sp)
	}
	ctx.Schedulable()
	return ctx
}

// work is the part of the admission counters one probe engine must
// count one way whoever runs it.
func work(s AdmissionStats) [6]int64 {
	return [6]int64{s.CoreTests, s.FPSolves, s.FPIterations, s.WarmStarts, s.DemandTests, s.DemandPoints}
}

// TestOneEngineCountsOneWay runs one seeded probe sequence twice over
// the same committed state: as TryPlace/TrySplit + Rollback on the
// writer context, and as Prober probes on its fork. There is one
// incremental engine, so the verdicts and the work counted — core
// tests, fixed points solved, their iterations, the warm starts among
// them, and under EDF the demand tests and the deadlines they looked
// at — must be equal probe by probe. A Prober folds its counters at
// Close, so each reader probe runs on a Prober of its own. Probed
// shapes are unique, so no verdict memo answers for the engine.
func TestOneEngineCountsOneWay(t *testing.T) {
	const cores = 4
	for _, pol := range []task.Policy{task.FixedPriority, task.EDF} {
		for _, m := range []*overhead.Model{overhead.Zero(), overhead.PaperModel()} {
			for _, chains := range []bool{false, true} {
				name := fmt.Sprintf("%v/zero=%v/chains=%v", pol, m.IsZero(), chains)
				rng := rand.New(rand.NewSource(20261001))
				ctx := engineFixture(t, rng, pol, m, cores, chains)
				var fit, solves, points int64
				for i := int64(0); i < 120; i++ {
					tk := heavyProbe(rng, 1<<20+i)
					c := int(i) % cores
					var sp *task.Split
					if i%4 == 3 {
						sp = randomSplit(rng, tk, cores, pol == task.EDF)
					}
					w0, r0 := ctx.Stats(), ctx.ReadStats()
					var onWriter, onReader bool
					pr := ctx.Fork().Prober()
					if sp != nil {
						c = sp.Parts[0].Core
						onWriter = ctx.TrySplit(sp, c)
						ctx.Rollback()
						onReader = pr.TrySplit(sp, c)
					} else {
						onWriter = ctx.TryPlace(tk, c)
						ctx.Rollback()
						onReader = pr.TryPlace(tk, c)
					}
					pr.Close()
					w, r := ctx.Stats().Sub(w0), ctx.ReadStats().Sub(r0)
					if onWriter != onReader || work(w) != work(r) {
						t.Fatalf("%s probe %d (split=%v, core %d): writer %v %v, reader %v %v",
							name, i, sp != nil, c, onWriter, work(w), onReader, work(r))
					}
					solves += w.FPSolves
					points += w.DemandPoints
					if onWriter && sp == nil && i%3 == 0 {
						// Move the committed state on and probe the next fork.
						fit++
						ctx.TryPlace(tk, c)
						ctx.Commit()
					}
				}
				if fit < 3 || (pol == task.FixedPriority && solves < 200) || (pol == task.EDF && points < 100) {
					t.Fatalf("%s: degenerate run: %d commits, %d solves, %d demand points", name, fit, solves, points)
				}
			}
		}
	}
}
