package partition

import (
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// FPTS is the paper's evaluated semi-partitioned algorithm: RM
// partitioning with task splitting, admitted by exact overhead-aware
// response-time analysis.
//
// Placement is first-fit in decreasing utilization order — identical
// to FFD while tasks fit whole, which makes FP-TS dominate FFD by
// construction (any FFD-schedulable set takes the same path and needs
// no splits). When a task fits on no core, it is split: the largest
// admissible budget is carved out of the core that can take the most,
// and the remainder continues on the remaining cores the same way.
// Split parts run at the highest local priorities so each part drains
// its budget promptly, maximizing the slack left for the downstream
// parts (DESIGN.md §6).
//
// The literal SPA1/SPA2 sequential constructions of Guan et al.
// (RTAS 2010), whose worst-case utilization bound FP-TS inherits, are
// provided separately (see SPA); under the bound-based admission they
// were designed for they reproduce the Liu & Layland bound, but under
// the exact RTA admission that the paper's overhead integration
// requires, the practical splitting-fallback variant is the one that
// exhibits the paper's "high acceptance ratio in empirical
// evaluations".
type FPTS struct {
	// NoBoost runs split parts at their plain RM priority instead of
	// the boosted band — the DESIGN.md §6 design-choice ablation.
	// Body parts then suffer local interference, inflating the
	// downstream jitter, so acceptance is expected to drop.
	NoBoost bool
}

// TS is the ready-to-use FP-TS instance compared against FFD and WFD
// in the Section 4 experiments; TSNoBoost is its ablation twin.
var (
	TS        = &FPTS{}
	TSNoBoost = &FPTS{NoBoost: true}
)

// Name returns "FP-TS" (or "FP-TS-noboost" for the ablation variant).
func (f *FPTS) Name() string {
	if f.NoBoost {
		return "FP-TS-noboost"
	}
	return "FP-TS"
}

// Policy declares fixed-priority dispatching.
func (f *FPTS) Policy() task.Policy { return task.FixedPriority }

// Partition assigns the set, splitting tasks when whole placement
// fails, or returns ErrUnschedulable. All probes thread one admission
// context, so each differs from the committed state by exactly the
// tentative placement being tested.
func (f *FPTS) Partition(s *task.Set, m int, model *overhead.Model) (*task.Assignment, error) {
	return f.PartitionOpts(s, m, model, Options{})
}

// PartitionOpts is Partition with a stats sink and an arena.
func (f *FPTS) PartitionOpts(s *task.Set, m int, model *overhead.Model, o Options) (*task.Assignment, error) {
	model = overhead.Normalize(model)
	if err := validateInput(s, m, f.Policy()); err != nil {
		return nil, err
	}
	a := o.newAssignment(f.Policy(), m)
	ctx := newContext(f, a, model, o)
	defer ctx.Flush()
	bs := o.newBudgetSearch()
	co := o.newCoreOrder()
	for _, t := range s.SortedByUtilizationDesc() {
		if placeByFit(ctx, a, t, FirstFit, m, co) {
			continue
		}
		if !f.split(ctx, bs, t, m) {
			return nil, ErrUnschedulable
		}
	}
	return finalize(ctx, a)
}

// split carves t across several cores: repeatedly find the core with
// the largest admissible budget for the next part and place it there,
// until the remainder fits. Each core hosts at most one part of t.
func (f *FPTS) split(ctx analysis.Context, bs *budgetSearch, t *task.Task, m int) bool {
	remaining := t.WCET
	var parts []task.Part
	used := make([]bool, m)
	for remaining > 0 {
		bestCore := -1
		var bestBudget timeq.Time
		for c := 0; c < m; c++ {
			if used[c] {
				continue
			}
			q := partQuery{ctx: ctx, t: t, noBoost: f.NoBoost, whole: wholeRefuse, prior: parts, core: c, next: placeholder(c, used), remaining: remaining}
			b := bs.largest(q, remaining)
			if b > bestBudget {
				bestCore, bestBudget = c, b
			}
		}
		if bestCore == -1 || bestBudget < minPartBudget {
			return false
		}
		used[bestCore] = true
		if bestBudget >= remaining {
			parts = append(parts, task.Part{Core: bestCore, Budget: remaining})
			remaining = 0
		} else {
			parts = append(parts, task.Part{Core: bestCore, Budget: bestBudget})
			remaining -= bestBudget
		}
	}
	if len(parts) < 2 {
		// Cannot happen: whole placement was attempted first, so the
		// first part never swallows the entire WCET. Guard anyway.
		return false
	}
	ctx.AddSplit(&task.Split{Task: t, Parts: parts, NoBoost: f.NoBoost})
	return true
}

// placeholder returns the lowest unused core other than c, the one a
// non-final part's remainder is probed on (-1: none).
func placeholder(c int, used []bool) int {
	for o := range used {
		if o != c && !used[o] {
			return o
		}
	}
	return -1
}
