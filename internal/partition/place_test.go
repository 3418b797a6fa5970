package partition

import (
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
)

// scanPlace is the placement the bin-packers ran before fit-ordered
// probing, kept as the reference: probe the cores in index order,
// rolling back after each (first fit stops at the first that admits),
// pick among the admitting cores by the fit rule's strict comparison,
// and place t there unprobed. It returns the core (-1: none) and the
// probes it took.
func scanPlace(ctx analysis.Context, a *task.Assignment, t *task.Task, fit Fit, m int) (int, int) {
	best, probes := -1, 0
	var bestU float64
scan:
	for c := 0; c < m; c++ {
		probes++
		fits := ctx.TryPlace(t, c)
		ctx.Rollback()
		if !fits {
			continue
		}
		u := a.CoreUtilization(c)
		switch fit {
		case FirstFit:
			best = c
			break scan
		case BestFit:
			if best == -1 || u > bestU {
				best, bestU = c, u
			}
		case WorstFit:
			if best == -1 || u < bestU {
				best, bestU = c, u
			}
		}
	}
	if best >= 0 {
		ctx.Place(t, best)
	}
	return best, probes
}

// countingContext counts the whole-task probes run through it.
type countingContext struct {
	analysis.Context
	probes int
}

func (c *countingContext) TryPlace(t *task.Task, core int) bool {
	c.probes++
	return c.Context.TryPlace(t, core)
}

// placedOn returns the core hosting t whole, or -1.
func placedOn(a *task.Assignment, t *task.Task) int {
	for c, ts := range a.Normal {
		if slices.Contains(ts, t) {
			return c
		}
	}
	return -1
}

// TestPlaceByFitMatchesScan replays every placement of a seeded sweep —
// 4 and 8 cores, first, best and worst fit, both policies, both models
// — against the reference scan on a twin context, and requires the
// same core (or the same "no core") and no more probes than the scan
// took. The fit-ordered side runs on recycled arena contexts, as it
// does in a sweep; the scan side runs on plain ones and commits with an
// unprobed Place, as it used to.
func TestPlaceByFitMatchesScan(t *testing.T) {
	perPoint := 3
	if testing.Short() {
		perPoint = 1
	}
	ar := NewArena()
	co := Options{Arena: ar}.newCoreOrder()
	var placements, probes, scanProbes int
	for _, m := range []int{4, 8} {
		sets := sweepSets(5, perPoint, m)
		for _, model := range []*overhead.Model{overhead.Zero(), overhead.PaperModel()} {
			for _, pol := range []task.Policy{task.FixedPriority, task.EDF} {
				for _, fit := range []Fit{FirstFit, BestFit, WorstFit} {
					for _, s := range sets {
						a := Options{Arena: ar}.newAssignment(pol, m)
						ctx := &countingContext{Context: ar.context(pol, a, model, nil)}
						ref := task.NewAssignment(m)
						ref.Policy = pol
						refCtx := analysis.ForPolicy(pol).NewContext(ref, model)
						for _, tk := range s.SortedByUtilizationDesc() {
							want, n := scanPlace(refCtx, ref, tk, fit, m)
							before := ctx.probes
							ok := placeByFit(ctx, a, tk, fit, m, co)
							got := placedOn(a, tk)
							if ok != (want >= 0) || got != want {
								t.Fatalf("%v %v m=%d zero-model=%v: task %v placed on %d (ok %v), scan picked %d",
									pol, fit, m, model.IsZero(), tk, got, ok, want)
							}
							if p := ctx.probes - before; p > n {
								t.Fatalf("%v %v m=%d: task %v took %d probes, the scan %d", pol, fit, m, tk, p, n)
							}
							placements++
							probes += ctx.probes - before
							scanProbes += n
							if !ok {
								break
							}
						}
					}
				}
			}
		}
	}
	if placements < 1000 || probes >= scanProbes {
		t.Fatalf("degenerate replay: %d placements, %d probes against the scan's %d", placements, probes, scanProbes)
	}
}

// TestPlaceByFitTies pins the tie rule: equal utilizations are visited
// lower index first, which is the core a scan's strict comparison
// keeps. Every core ties at 0 on an empty platform, and here cores 0
// and 2 tie at 0.2, cores 1 and 3 at 0.5.
func TestPlaceByFitTies(t *testing.T) {
	co := new(coreOrder)
	cores := func(keys []fitKey) []int {
		var out []int
		for _, k := range keys {
			out = append(out, k.core)
		}
		return out
	}
	empty := task.NewAssignment(4)
	for _, fit := range []Fit{FirstFit, BestFit, WorstFit} {
		if got := cores(co.visit(empty, fit, 4)); !slices.Equal(got, []int{0, 1, 2, 3}) {
			t.Errorf("%v on an empty platform visits %v", fit, got)
		}
	}

	// Cores 1 and 3 carry 0.5 each, but only core 3 admits a (5, 10)
	// task under fixed priorities: behind the (3, 6) task on core 1 it
	// responds at 11 ms.
	s := newSet(t, [2]int64{1, 5}, [2]int64{3, 6}, [2]int64{1, 5}, [2]int64{5, 10}, [2]int64{5, 10}, [2]int64{1, 100})
	load, probe, small := s.Tasks[:4], s.Tasks[4], s.Tasks[5]
	cases := []struct {
		pol        task.Policy
		fit        Fit
		t          *task.Task
		visit      []int
		want       int
		wantProbes int
	}{
		{task.FixedPriority, WorstFit, small, []int{0, 2, 1, 3}, 0, 1},
		{task.FixedPriority, BestFit, small, []int{1, 3, 0, 2}, 1, 1},
		{task.FixedPriority, BestFit, probe, []int{1, 3, 0, 2}, 3, 2},
		{task.FixedPriority, FirstFit, probe, []int{0, 1, 2, 3}, 0, 1},
		{task.EDF, BestFit, probe, []int{1, 3, 0, 2}, 1, 1},
		{task.EDF, WorstFit, probe, []int{0, 2, 1, 3}, 0, 1},
	}
	for _, tc := range cases {
		build := func() (*task.Assignment, analysis.Context) {
			a := task.NewAssignment(4)
			a.Policy = tc.pol
			ctx := analysis.ForPolicy(tc.pol).NewContext(a, overhead.Zero())
			for c, lt := range load {
				ctx.Place(lt, c)
			}
			return a, ctx
		}
		a, ctx := build()
		if got := cores(co.visit(a, tc.fit, 4)); !slices.Equal(got, tc.visit) {
			t.Errorf("%v %v visits %v, want %v", tc.pol, tc.fit, got, tc.visit)
		}
		cc := &countingContext{Context: ctx}
		placeByFit(cc, a, tc.t, tc.fit, 4, co)
		ref, refCtx := build()
		want, _ := scanPlace(refCtx, ref, tc.t, tc.fit, 4)
		if got := placedOn(a, tc.t); got != tc.want || got != want || cc.probes != tc.wantProbes {
			t.Errorf("%v %v task %v: placed on %d after %d probes, want %d after %d (scan: %d)",
				tc.pol, tc.fit, tc.t, got, cc.probes, tc.want, tc.wantProbes, want)
		}
	}
}

// TestPlaceByFitAllocFree guards a placement's own cost: ordering the
// cores and committing the winner allocate nothing once the scratch
// has grown, with an arena (the sweep's path) and without one (a plain
// context reset in place).
func TestPlaceByFitAllocFree(t *testing.T) {
	const m = 4
	s := sweepSets(9, 1, m)[4] // ΣU = 2.8: every fit places all 16 tasks
	order := s.SortedByUtilizationDesc()
	model := overhead.PaperModel()
	for _, pol := range []task.Policy{task.FixedPriority, task.EDF} {
		for _, fit := range []Fit{FirstFit, BestFit, WorstFit} {
			ar := NewArena()
			withArena := Options{Arena: ar}
			plain := task.NewAssignment(m)
			plain.Policy = pol
			plainCtx := analysis.ForPolicy(pol).NewContext(plain, model)
			plainOrder := Options{}.newCoreOrder()
			for _, run := range []struct {
				name string
				pass func() (*task.Assignment, analysis.Context, *coreOrder)
			}{
				{"arena", func() (*task.Assignment, analysis.Context, *coreOrder) {
					a := withArena.newAssignment(pol, m)
					return a, ar.context(pol, a, model, nil), withArena.newCoreOrder()
				}},
				{"no arena", func() (*task.Assignment, analysis.Context, *coreOrder) {
					for c := range plain.Normal {
						plain.Normal[c] = plain.Normal[c][:0]
					}
					plainCtx.Reset(plain, model)
					return plain, plainCtx, plainOrder
				}},
			} {
				placed := 0
				pack := func() {
					a, ctx, co := run.pass()
					placed = 0
					for _, tk := range order {
						if !placeByFit(ctx, a, tk, fit, m, co) {
							return
						}
						placed++
					}
				}
				for i := 0; i < 3; i++ {
					pack() // grow the slabs and the scratch
				}
				if n := testing.AllocsPerRun(20, pack); n != 0 {
					t.Errorf("%v %v %s: %.1f allocations per packing pass", pol, fit, run.name, n)
				}
				if placed != len(order) {
					t.Fatalf("%v %v %s: degenerate pass, %d of %d tasks placed", pol, fit, run.name, placed, len(order))
				}
			}
		}
	}
}
