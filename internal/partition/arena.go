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
// recycle instead of reallocating) and one recycled assignment.
// Decisions stay bit-identical to arena-free calls, which the sweep
// differential test pins.
//
// An Arena is single-goroutine, like the contexts it owns. An
// assignment returned by a PartitionOpts call carrying an arena is
// valid only until the next call with the same arena — the sweep
// consumes each result before moving on.
type Arena struct {
	slots  [2]arenaSlot // indexed by task.Policy
	zero   *overhead.Model
	search budgetSearch
	order  coreOrder
}

type arenaSlot struct {
	ctx analysis.Context
	a   *task.Assignment
}

// NewArena returns an empty arena; slabs grow on first use.
func NewArena() *Arena { return &Arena{} }

// BeginSet does nothing: an arena keeps no state across task sets that
// a new set or model could make stale (Context.Reset re-tags every
// cached value). It stays because callers outside this module, the
// benchmark's sweep workload among them, call it between task sets.
func (ar *Arena) BeginSet() {}

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
	} else {
		s.ctx.Reset(a, model)
	}
	s.ctx.SetCollector(stats)
	return s.ctx
}
