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
// committed warm values and jitters are converged.
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
// at — must be equal probe by probe. Probed shapes are unique, so no
// verdict memo answers for the engine.
func TestOneEngineCountsOneWay(t *testing.T) {
	const cores = 4
	for _, pol := range []task.Policy{task.FixedPriority, task.EDF} {
		for _, m := range []*overhead.Model{overhead.Zero(), overhead.PaperModel()} {
			for _, chains := range []bool{false, true} {
				name := fmt.Sprintf("%v/zero=%v/chains=%v", pol, m.IsZero(), chains)
				rng := rand.New(rand.NewSource(20261001))
				ctx := engineFixture(t, rng, pol, m, cores, chains)
				pr := ctx.Fork().Prober()
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
						pr.Close()
						pr = ctx.Fork().Prober()
					}
				}
				pr.Close()
				if fit < 3 || (pol == task.FixedPriority && solves < 200) || (pol == task.EDF && points < 100) {
					t.Fatalf("%s: degenerate run: %d commits, %d solves, %d demand points", name, fit, solves, points)
				}
			}
		}
	}
}

// TestPlaceRepeatsRolledBackProbe pins best-fit's pattern: probe every
// core, roll each back, Place on one probed earlier. The Place must
// leave the context as a Commit of that core's probe would have — its
// verdict and the values it converged — so the next full test costs
// what it costs after the Commit, and less than after a Place the
// context never saw probed. Every core holds the textbook set
// C = (1, 2, 3) ms, T = (4, 6, 12) ms, whose lowest task's bounds
// straddle its deadline: the per-entity screen passes the two above it
// but leaves it to a solve, so the full test solves something (the
// fixture's precondition). The fixed-priority counts are pinned: the
// three cores the promoted verdict does not answer solve their lowest
// task once each, warm, in one iteration.
func TestPlaceRepeatsRolledBackProbe(t *testing.T) {
	const cores = 4
	for _, pol := range []task.Policy{task.FixedPriority, task.EDF} {
		m := overhead.PaperModel()
		build := func() (Context, *task.Task) {
			a := task.NewAssignment(cores)
			a.Policy = pol
			ctx := ForPolicy(pol).NewContext(a, m)
			for c := 0; c < cores; c++ {
				for i, ct := range [][2]int64{{1, 4}, {2, 6}, {3, 12}} {
					tk := &task.Task{ID: task.ID(10*c + i + 1), WCET: ms(ct[0]), Period: ms(ct[1]), Priority: i + 2, WSS: 64 << 10}
					if !ctx.TryPlace(tk, c) {
						t.Fatalf("%v: the textbook set must fit core %d", pol, c)
					}
					ctx.Commit()
				}
			}
			ctx.Schedulable()
			// A short-period task at the top of the order: it fits
			// everywhere and moves every response time below it.
			return ctx, &task.Task{ID: 900, WCET: ms(1) / 10, Period: ms(5), Priority: 1, WSS: 64 << 10}
		}
		fullTest := func(ctx Context) AdmissionStats {
			before := ctx.Stats()
			if !ctx.Schedulable() {
				t.Fatalf("%v: fixture must stay schedulable", pol)
			}
			return ctx.Stats().Sub(before)
		}
		const target = 1 // probed second of four: later probes must not disturb it

		probed, tk := build()
		for c := 0; c < cores; c++ {
			if !probed.TryPlace(tk, c) {
				t.Fatalf("%v: the light probe must fit core %d", pol, c)
			}
			probed.Rollback()
		}
		probed.Place(tk, target)

		committed, tk := build()
		committed.TryPlace(tk, target)
		committed.Commit()

		blind, tk := build()
		blind.Place(tk, target)

		p, c, b := fullTest(probed), fullTest(committed), fullTest(blind)
		if p != c {
			t.Errorf("%v: full test after probe-all + Place %+v, after TryPlace + Commit %+v", pol, p, c)
		}
		// The placement raises the queue bound, so the other cores are
		// re-tested either way; the promoted verdict saves the target's.
		if p.VerdictHits != b.VerdictHits+1 || (pol == task.FixedPriority && (p.FPSolves == 0 || p.FPSolves >= b.FPSolves)) {
			t.Errorf("%v: promotion not observable: promoted %v, unprobed %v", pol, p, b)
		}
		if want := (AdmissionStats{FullTests: 1, CoreTests: 4, VerdictHits: 1, FPSolves: 3, FPIterations: 3, WarmStarts: 3}); pol == task.FixedPriority && p != want {
			t.Errorf("%v: full test after the promoting Place %+v, want %+v", pol, work(p), work(want))
		}
	}
}
