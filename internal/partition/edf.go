package partition

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// EDF partitioning — the extension the paper's Section 2 sketches
// ("a wide range of semi-partitioned algorithms based on both
// fixed-priority and EDF scheduling").
//
// EDFHeuristic is partitioned EDF with bin-packing placement;
// EDFWM adds EDF-WM-style task splitting: a task that fits nowhere is
// split across k cores, each part confined to a deadline window of
// D/k and sized to the largest budget its core admits. Windows
// decouple the cores, so admission is a per-core processor-demand
// test, reached through the shared analysis.EDFDemand analyzer.

// EDFHeuristic is a partitioned (no-splitting) EDF bin-packer.
type EDFHeuristic struct {
	Fit  Fit
	name string
}

// Partitioned EDF baselines.
var (
	// EDFFFD is first-fit decreasing-utilization partitioned EDF.
	EDFFFD = &EDFHeuristic{Fit: FirstFit, name: "EDF-FFD"}
	// EDFWFD is worst-fit decreasing-utilization partitioned EDF.
	EDFWFD = &EDFHeuristic{Fit: WorstFit, name: "EDF-WFD"}
)

// Policy declares EDF dispatching.
func (h *EDFHeuristic) Policy() task.Policy { return task.EDF }

// Name returns the algorithm name.
func (h *EDFHeuristic) Name() string {
	if h.name != "" {
		return h.name
	}
	return fmt.Sprintf("EDF/%v", h.Fit)
}

// Partition assigns every task whole to some core under EDF, or
// fails with ErrUnschedulable. Probes thread one admission context
// across the whole packing loop.
func (h *EDFHeuristic) Partition(s *task.Set, m int, model *overhead.Model) (*task.Assignment, error) {
	return h.PartitionOpts(s, m, model, Options{})
}

// PartitionOpts is Partition with a stats sink and an arena.
func (h *EDFHeuristic) PartitionOpts(s *task.Set, m int, model *overhead.Model, o Options) (*task.Assignment, error) {
	model = overhead.Normalize(model)
	if err := validateInput(s, m, h.Policy()); err != nil {
		return nil, err
	}
	a := o.newAssignment(h.Policy(), m)
	ctx := newContext(h, a, model, o)
	defer ctx.Flush()
	co := o.newCoreOrder()
	for _, t := range s.SortedByUtilizationDesc() {
		if !placeByFit(ctx, a, t, h.Fit, m, co) {
			return nil, ErrUnschedulable
		}
	}
	return finalize(ctx, a)
}

// EDFWM is semi-partitioned EDF with window-constrained task
// splitting (after Kato & Yamasaki's EDF-WM).
type EDFWM struct{}

// WM is the ready-to-use EDF-WM instance.
var WM = &EDFWM{}

// Name returns "EDF-WM".
func (*EDFWM) Name() string { return "EDF-WM" }

// Policy declares EDF dispatching.
func (*EDFWM) Policy() task.Policy { return task.EDF }

// Partition places tasks first-fit in decreasing utilization order
// and splits a task over k equal deadline windows when it fits
// nowhere whole, growing k until the split succeeds or cores run out.
func (w *EDFWM) Partition(s *task.Set, m int, model *overhead.Model) (*task.Assignment, error) {
	return w.PartitionOpts(s, m, model, Options{})
}

// PartitionOpts is Partition with a stats sink and an arena.
func (w *EDFWM) PartitionOpts(s *task.Set, m int, model *overhead.Model, o Options) (*task.Assignment, error) {
	model = overhead.Normalize(model)
	if err := validateInput(s, m, w.Policy()); err != nil {
		return nil, err
	}
	a := o.newAssignment(w.Policy(), m)
	ctx := newContext(w, a, model, o)
	defer ctx.Flush()
	bs := o.newBudgetSearch()
	co := o.newCoreOrder()
	for _, t := range s.SortedByUtilizationDesc() {
		if placeByFit(ctx, a, t, FirstFit, m, co) {
			continue
		}
		if !w.split(ctx, bs, t, m) {
			return nil, ErrUnschedulable
		}
	}
	return finalize(ctx, a)
}

// split tries k = 2..m equal windows of D/k: for each window it finds
// the core admitting the largest budget; if the k budgets cover the
// WCET the split is installed (last window trimmed to the remainder).
func (w *EDFWM) split(ctx analysis.Context, bs *budgetSearch, t *task.Task, m int) bool {
	d := t.EffectiveDeadline()
	for k := 2; k <= m; k++ {
		window := d / timeq.Time(k)
		if window < minPartBudget {
			return false
		}
		parts, windows, ok := w.trySplit(ctx, bs, t, k, window, m)
		if ok {
			ctx.AddSplit(&task.Split{Task: t, Parts: parts, Windows: windows})
			return true
		}
	}
	return false
}

// trySplit greedily assigns each of the k windows to the core that
// admits the largest budget for a (budget, window, T) sporadic task,
// one part per core.
func (w *EDFWM) trySplit(ctx analysis.Context, bs *budgetSearch, t *task.Task, k int, window timeq.Time, m int) ([]task.Part, []timeq.Time, bool) {
	remaining := t.WCET
	var parts []task.Part
	var windows []timeq.Time
	used := make([]bool, m)
	for i := 0; i < k && remaining > 0; i++ {
		bestCore := -1
		var bestBudget timeq.Time
		for c := 0; c < m; c++ {
			if used[c] {
				continue
			}
			b := maxWindowBudget(bs, partQuery{ctx: ctx, t: t, whole: wholeSplit, prior: parts, priorWins: windows, window: window, core: c, next: placeholder(c, used), remaining: remaining})
			if b > bestBudget {
				bestCore, bestBudget = c, b
			}
		}
		if bestCore == -1 || bestBudget < minPartBudget {
			return nil, nil, false
		}
		used[bestCore] = true
		if bestBudget > remaining {
			bestBudget = remaining
		}
		parts = append(parts, task.Part{Core: bestCore, Budget: bestBudget})
		windows = append(windows, window)
		remaining -= bestBudget
	}
	if remaining > 0 || len(parts) < 2 {
		return nil, nil, false
	}
	return parts, windows, true
}

// maxWindowBudget returns the largest budget b ≤ min(remaining,
// window) such that core c admits the tentative part with deadline
// window `window` (see budgetSearch).
func maxWindowBudget(bs *budgetSearch, q partQuery) timeq.Time {
	limit := min(q.remaining, q.window)
	if limit < minPartBudget {
		return 0
	}
	return bs.largest(q, limit)
}
