package partition

import (
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
)

// Arena is the per-worker scratch a sweep threads through consecutive
// Partition calls via Options.Arena. It holds, per scheduling policy,
// one long-lived admission context (rebound to each call's assignment
// with Context.Reset, so entity slabs, warm vectors and verdict memos
// recycle instead of reallocating), one recycled assignment, and one
// cross-algorithm SweepCache: within a (task set, utilization) cell
// the nine algorithms probe the same task shapes against identical
// early-packing core states, so each other's verdicts are free
// acceptance tests. Sharing is exact (see analysis.SweepCache) —
// decisions stay bit-identical to arena-free calls, which the sweep
// differential test pins.
//
// An Arena is single-goroutine, like the contexts it owns. An
// assignment returned by a PartitionOpts call carrying an arena is
// valid only until the next call with the same arena — the sweep
// consumes each result before moving on. Call BeginSet between task
// sets (or on a model change) to invalidate the shared memos.
type Arena struct {
	slots  [2]arenaSlot // indexed by task.Policy
	zero   *overhead.Model
	search budgetSearch
	order  coreOrder
}

type arenaSlot struct {
	ctx   analysis.Context
	a     *task.Assignment
	sweep *analysis.SweepCache
}

// NewArena returns an empty arena; slabs grow on first use.
func NewArena() *Arena { return &Arena{} }

// BeginSet invalidates the cross-algorithm probe-verdict memos. Call
// it whenever the task set or the overhead model changes: the memo
// shapes do not encode either, so stale entries would otherwise leak
// across cells.
func (ar *Arena) BeginSet() {
	for i := range ar.slots {
		if ar.slots[i].sweep != nil {
			ar.slots[i].sweep.Begin()
		}
	}
}

// normalize mirrors overhead.Normalize but reuses one zero model:
// analysis cost caches are keyed by model pointer, so handing every
// Reset a fresh Zero() would run them cold each set.
func (ar *Arena) normalize(model *overhead.Model) *overhead.Model {
	if model != nil {
		return model
	}
	if ar.zero == nil {
		ar.zero = overhead.Zero()
	}
	return ar.zero
}

func (ar *Arena) slot(p task.Policy) *arenaSlot { return &ar.slots[int(p)&1] }

// assignment returns the policy's recycled assignment, emptied.
func (ar *Arena) assignment(p task.Policy, m int) *task.Assignment {
	s := ar.slot(p)
	if s.a == nil || s.a.NumCores != m {
		s.a = task.NewAssignment(m)
		return s.a
	}
	a := s.a
	for c := range a.Normal {
		a.Normal[c] = a.Normal[c][:0]
	}
	a.Splits = a.Splits[:0]
	a.Policy = task.FixedPriority // the zero value; finalize re-stamps
	return a
}

// context returns the policy's long-lived admission context, rebound
// to this call's assignment and model.
func (ar *Arena) context(p task.Policy, a *task.Assignment, model *overhead.Model, stats *analysis.Collector) analysis.Context {
	model = ar.normalize(model)
	s := ar.slot(p)
	if s.ctx == nil {
		s.ctx = analysis.ForPolicy(p).NewContext(a, model)
		s.sweep = analysis.NewSweepCache()
		s.ctx.SetSweepCache(s.sweep)
	} else {
		s.ctx.Reset(a, model)
	}
	s.ctx.SetCollector(stats)
	return s.ctx
}
