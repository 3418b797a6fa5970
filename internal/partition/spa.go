package partition

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// minPartBudget is the smallest split-part budget worth creating. A
// part smaller than this is treated as "does not fit": each part
// costs at least one migration (two scheduler invocations plus a
// remote queue insert, ≈ 15µs under the paper's model), so slivers
// below 1µs of budget are never useful and would explode the part
// count in the zero-overhead setting.
const minPartBudget = timeq.Microsecond

// SPA implements the semi-partitioned task-splitting algorithms of
// Guan et al. (RTAS 2010) — the paper's FP-TS. Cores are filled one
// at a time with tasks in increasing priority order; a task that does
// not fit entirely on the current core is split: the largest
// admissible budget stays, the remainder continues on the next core.
// Split parts execute at the highest local priorities (DESIGN.md §6).
//
// Variant 2 (SPA2) additionally pre-assigns heavy tasks — utilization
// above the Liu & Layland threshold — to dedicated cores so they are
// never split; this is what lets SPA2 keep the L&L utilization bound
// for arbitrary task sets.
type SPA struct {
	// Variant is 1 or 2.
	Variant int
	// FillByBound fills each core to the Liu & Layland utilization
	// threshold (the original bound-preserving construction) instead
	// of the default exact-RTA maximal budget. RTA fill admits more
	// sets; bound fill reproduces the theoretical construction.
	FillByBound bool
}

// The two variants with RTA fill (used in the Section 4 comparison,
// where admission is overhead-aware RTA for every algorithm).
var (
	// SPA1 is the light-task splitting algorithm.
	SPA1 = &SPA{Variant: 1}
	// SPA2 is the general algorithm; this is the paper's FP-TS.
	SPA2 = &SPA{Variant: 2}
)

// Policy declares fixed-priority dispatching.
func (alg *SPA) Policy() task.Policy { return task.FixedPriority }

// Name returns "SPA1", "SPA2", or the bound-fill variants
// "SPA1-bound"/"SPA2-bound". The paper refers to SPA2 as FP-TS.
func (alg *SPA) Name() string {
	n := "SPA1"
	if alg.Variant == 2 {
		n = "SPA2"
	}
	if alg.FillByBound {
		n += "-bound"
	}
	return n
}

// Partition runs the splitting assignment. The returned assignment
// passes full overhead-aware chain analysis or an error is returned.
// One admission context is threaded through the entire sequential
// fill, so each probe costs only the work of the core it touches.
func (alg *SPA) Partition(s *task.Set, m int, model *overhead.Model) (*task.Assignment, error) {
	return alg.PartitionOpts(s, m, model, Options{})
}

// PartitionOpts is Partition with a stats sink and an arena.
func (alg *SPA) PartitionOpts(s *task.Set, m int, model *overhead.Model, o Options) (*task.Assignment, error) {
	model = overhead.Normalize(model)
	if err := validateInput(s, m, alg.Policy()); err != nil {
		return nil, err
	}
	a := o.newAssignment(alg.Policy(), m)
	ctx := newContext(alg, a, model, o)
	defer ctx.Flush()

	// Task order: increasing priority (longest period first), the
	// SPA fill order.
	order := s.SortedByPriority()
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}

	// SPA2 reserves the tail of the core sequence for heavy tasks,
	// one each; the sequential fill (which starts at core 0) reaches
	// those cores last and tops them up with light tasks if room
	// remains.
	if alg.Variant == 2 {
		heavy := heavyTasks(s)
		if len(heavy) > m {
			return nil, ErrUnschedulable
		}
		// Pre-assign heavy tasks to the last cores, largest first on
		// the last core (they are filled last by the sequence).
		for i, t := range heavy {
			if !ctx.TryPlace(t, m-1-i) {
				ctx.Rollback()
				return nil, ErrUnschedulable
			}
			ctx.Commit()
		}
		// Remove heavy tasks from the fill order.
		isHeavy := make(map[task.ID]bool, len(heavy))
		for _, t := range heavy {
			isHeavy[t.ID] = true
		}
		var light []*task.Task
		for _, t := range order {
			if !isHeavy[t.ID] {
				light = append(light, t)
			}
		}
		order = light
	}

	bs := o.newBudgetSearch()
	cur := 0 // current core of the sequential fill
	for _, t := range order {
		remaining := t.WCET
		var parts []task.Part
		for remaining > 0 {
			if cur >= m {
				return nil, ErrUnschedulable
			}
			c := cur
			if len(parts) == 0 && !alg.FillByBound {
				// A fresh task is probed whole first, as placeByFit
				// does; only a refused one is split.
				if ctx.TryPlace(t, c) {
					ctx.Commit()
					remaining = 0
					continue
				}
				ctx.Rollback()
			}
			b := alg.maxBudget(ctx, bs, a, parts, t, remaining, c, m)
			switch {
			case b >= remaining:
				// The remainder fits entirely: place and stay on
				// this core.
				if len(parts) == 0 {
					ctx.Place(t, c) // bound fill: the final test judges it
				} else {
					parts = append(parts, task.Part{Core: c, Budget: remaining})
					ctx.AddSplit(&task.Split{Task: t, Parts: parts})
				}
				remaining = 0
			case b < minPartBudget:
				// Nothing useful fits: the core is full; advance.
				cur++
			default:
				parts = append(parts, task.Part{Core: c, Budget: b})
				remaining -= b
				cur++
			}
		}
	}
	return finalize(ctx, a)
}

// heavyTasks returns the tasks whose utilization exceeds the Liu &
// Layland threshold for the set size, ordered by decreasing
// utilization. These are the tasks SPA2 refuses to split.
func heavyTasks(s *task.Set) []*task.Task {
	theta := analysis.LiuLaylandBound(s.Len())
	var heavy []*task.Task
	for _, t := range s.Tasks {
		if t.Utilization() > theta {
			heavy = append(heavy, t)
		}
	}
	sort.SliceStable(heavy, func(i, j int) bool {
		ui, uj := heavy[i].Utilization(), heavy[j].Utilization()
		if ui != uj {
			return ui > uj
		}
		return heavy[i].ID < heavy[j].ID
	})
	return heavy
}

// maxBudget returns the largest budget b ≤ remaining such that core c
// stays schedulable with a tentative split part (priorParts…, (c,b))
// added: the RTA fill's shared search (see budgetSearch), or the bound
// fill.
func (alg *SPA) maxBudget(ctx analysis.Context, bs *budgetSearch, a *task.Assignment, priorParts []task.Part, t *task.Task, remaining timeq.Time, c, m int) timeq.Time {
	if alg.FillByBound {
		return alg.boundBudget(a, t, remaining, c)
	}
	// A non-final part's remainder lives on the next core for flag
	// purposes; if there is no next core the split cannot complete.
	next := c + 1
	if next >= m {
		next = -1
	}
	return bs.largest(partQuery{ctx: ctx, t: t, whole: wholeRefuse, prior: priorParts, core: c, next: next, remaining: remaining}, remaining)
}

// boundBudget fills the core to the Liu & Layland utilization
// threshold Θ(n+1): b = (Θ − U_core)·T, the original SPA
// construction.
func (alg *SPA) boundBudget(a *task.Assignment, t *task.Task, remaining timeq.Time, c int) timeq.Time {
	n := a.TaskCountOnCore(c) + 1
	theta := analysis.LiuLaylandBound(n)
	slack := theta - a.CoreUtilization(c)
	if slack <= 0 {
		return 0
	}
	b := timeq.Time(slack * float64(t.Period))
	if b > remaining {
		b = remaining
	}
	return b
}
