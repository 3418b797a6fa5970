// Package partition implements the task-to-core assignment algorithms
// the paper compares in Section 4:
//
//   - FFD, WFD (and companions FF, BF, BFD): partitioned
//     fixed-priority scheduling with bin-packing heuristics ordered by
//     decreasing utilization;
//   - FP-TS (FPTS): the semi-partitioned fixed-priority algorithm the
//     paper evaluates, which places first fit in decreasing
//     utilization order and splits a task across cores only when it
//     fits nowhere whole;
//   - SPA1 and SPA2: the literal sequential task-splitting
//     constructions of Guan et al. (RTAS 2010), which fill each core up
//     to a threshold and split the overflowing task across core
//     boundaries;
//   - EDF-FFD, EDF-WFD and EDF-WM: the partitioned and
//     window-splitting EDF extensions.
//
// Two of these are dominance pairs: FP-TS (boosted or not) runs FFD's
// packing loop until its first split, and EDF-WM runs EDF-FFD's, so
// each partitioned member accepts exactly the sets its splitting twin
// accepts without a split, with the same assignment (see Unsplit).
//
// Every algorithm declares its scheduling policy and admits every
// placement through the analysis.Analyzer for that policy — the
// shared overhead-aware admission test of package analysis — so an
// assignment is returned only if it is schedulable *including*
// overheads. Passing overhead.Zero() yields the "theoretical"
// comparison.
//
// Admission is stateful: each Partition call opens one incremental
// analysis.Context over its growing assignment and threads it through
// every probe of the packing loop, so consecutive probes cost only
// the work of the cores they touch (DESIGN.md §2). Decisions are
// bit-identical to the stateless analyzer path.
package partition

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
)

// ErrUnschedulable is returned when the algorithm cannot produce a
// schedulable assignment on the given number of cores.
var ErrUnschedulable = errors.New("partition: task set not schedulable by this algorithm")

// Options carries the cross-cutting concerns of one Partition call.
// The zero value is the plain call: no stats sink, fresh allocations.
type Options struct {
	// Stats, when non-nil, receives the admission counters this call's
	// context flushes, so concurrent callers in one process can each
	// scope their own admission work.
	Stats *analysis.Collector
	// Arena, when non-nil, supplies the call's assignment and
	// admission context from per-worker recycled slabs; see Arena.
	// Decisions are unchanged. The returned assignment is only valid
	// until the next call with the same arena.
	Arena *Arena
}

// newAssignment returns the assignment the packing loop will grow:
// arena-recycled when an arena is attached, fresh otherwise.
func (o Options) newAssignment(p task.Policy, m int) *task.Assignment {
	if o.Arena != nil {
		return o.Arena.assignment(p, m)
	}
	return task.NewAssignment(m)
}

// Algorithm produces an assignment of a task set onto m cores, or
// ErrUnschedulable. Every implementation declares the scheduling
// policy its assignments require; admission goes through the
// analysis.Analyzer for that policy, and returned assignments are
// stamped with it and pass the analyzer's full test under the same
// model.
type Algorithm interface {
	Name() string
	// Policy is the dispatching discipline the algorithm's
	// assignments are built (and admitted) for.
	Policy() task.Policy
	Partition(s *task.Set, m int, model *overhead.Model) (*task.Assignment, error)
	// PartitionOpts is Partition with explicit cross-cutting options:
	// a per-call admission-stats sink and a recycling arena.
	PartitionOpts(s *task.Set, m int, model *overhead.Model, o Options) (*task.Assignment, error)
}

// ByName maps the conventional CLI/API names to algorithms — the
// single lookup shared by the spexp/spsim flag parsing and the admitd
// sweep endpoint.
func ByName(name string) (Algorithm, error) {
	switch name {
	case "fpts":
		return TS, nil
	case "ffd":
		return FFD, nil
	case "wfd":
		return WFD, nil
	case "bfd":
		return BFD, nil
	case "spa1":
		return SPA1, nil
	case "spa2":
		return SPA2, nil
	case "edfwm":
		return WM, nil
	case "edfffd":
		return EDFFFD, nil
	case "edfwfd":
		return EDFWFD, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (fpts|ffd|wfd|bfd|spa1|spa2|edfwm|edfffd|edfwfd)", name)
	}
}

// Unsplit returns the partitioned twin that a splitting algorithm
// runs as its prefix, or nil when a has none: FFD for FP-TS (boosted
// or NoBoost) and EDF-FFD for EDF-WM. The splitter places first fit in
// decreasing utilization order exactly as its twin does and splits
// only a task that fits on no core whole, where the twin gives up. So
// on every set and model the twin accepts iff the splitter accepts
// with NumSplit() == 0, and then with the identical assignment; a
// sweep running both derives the twin's verdict instead of packing
// twice.
func Unsplit(a Algorithm) Algorithm {
	switch a.(type) {
	case *FPTS:
		return FFD
	case *EDFWM:
		return EDFFFD
	}
	return nil
}

// newContext opens the incremental admission context every packing
// loop threads through its probes: one stateful session per
// (assignment, overhead model), bound to the analyzer of the
// algorithm's declared policy. All assignment mutations go through
// the context so its per-core caches, warm-started fixed points and
// verdict memos stay coherent; decisions are bit-identical to the
// stateless analyzer path. The options' stats sink, if any, is
// attached so the call's admission work lands in the caller's
// collector.
func newContext(alg Algorithm, a *task.Assignment, model *overhead.Model, o Options) analysis.Context {
	if o.Arena != nil {
		// Long-lived per-policy context, rebound with Reset: entity
		// slabs, warm vectors and verdict memos recycle across calls.
		return o.Arena.context(alg.Policy(), a, model, o.Stats)
	}
	ctx := analysis.ForPolicy(alg.Policy()).NewContext(a, model)
	if o.Stats != nil {
		ctx.SetCollector(o.Stats)
	}
	return ctx
}

// placeByFit runs one bin-packing placement: visit the cores in the
// fit rule's order and commit t onto the first that admits it.
// Reports false when no core admits t.
//
// The fit rules are fixed orders on committed utilization, so the
// first admitting core in that order is the core a scan of every core
// would pick: the placement probes only the winner and the cores ahead
// of it that reject t. A probe never moves committed state, so the
// utilizations read before the first probe are the ones a scan reads.
func placeByFit(ctx analysis.Context, a *task.Assignment, t *task.Task, fit Fit, m int, co *coreOrder) bool {
	for _, k := range co.visit(a, fit, m) {
		if ctx.TryPlace(t, k.core) {
			ctx.Commit()
			return true
		}
		ctx.Rollback()
	}
	return false
}

// fitKey is one core in a placement's visiting order.
type fitKey struct {
	u    float64 // the core's committed utilization
	core int
}

// coreOrder is the scratch a Partition call orders its cores in: the
// arena's when one is attached, so a placement allocates nothing once
// the buffer has grown to m.
type coreOrder struct{ keys []fitKey }

// newCoreOrder returns the call's core-order scratch.
func (o Options) newCoreOrder() *coreOrder {
	if o.Arena != nil {
		return &o.Arena.order
	}
	return new(coreOrder)
}

// visit returns the m cores in the order fit probes them: FirstFit by
// index, WorstFit by ascending and BestFit by descending committed
// utilization. Equal utilizations keep the lower index first, as the
// strict comparisons of a scan do — every core ties at 0 on the first
// placements.
func (co *coreOrder) visit(a *task.Assignment, fit Fit, m int) []fitKey {
	keys := co.keys[:0]
	for c := 0; c < m; c++ {
		k := fitKey{core: c}
		if fit != FirstFit {
			k.u = a.CoreUtilization(c)
		}
		keys = append(keys, k)
	}
	co.keys = keys
	switch fit {
	case WorstFit:
		slices.SortFunc(keys, leastLoadedFirst)
	case BestFit:
		slices.SortFunc(keys, mostLoadedFirst)
	}
	return keys
}

func leastLoadedFirst(x, y fitKey) int {
	return cmp.Or(cmp.Compare(x.u, y.u), x.core-y.core)
}

func mostLoadedFirst(x, y fitKey) int {
	return cmp.Or(cmp.Compare(y.u, x.u), x.core-y.core)
}

// validateInput performs the shared sanity checks. Fixed-priority
// algorithms additionally require priorities to be assigned.
func validateInput(s *task.Set, m int, p task.Policy) error {
	if m <= 0 {
		return fmt.Errorf("partition: %d cores", m)
	}
	if s.Len() == 0 {
		return errors.New("partition: empty task set")
	}
	if err := s.Validate(); err != nil {
		return err
	}
	if p == task.FixedPriority {
		for _, t := range s.Tasks {
			if t.Priority == 0 {
				return fmt.Errorf("partition: task %v has no priority; call Set.AssignRM first", t)
			}
		}
	}
	return nil
}

// finalize stamps the assignment with the context's policy and
// validates it in full, chains included. The full test runs through
// the context, so per-core verdicts the packing loop already
// established (and no later mutation invalidated) are reused instead
// of re-analyzed.
func finalize(ctx analysis.Context, a *task.Assignment) (*task.Assignment, error) {
	a.Policy = ctx.Analyzer().Policy()
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("partition: produced invalid assignment: %w", err)
	}
	if !ctx.Schedulable() {
		return nil, ErrUnschedulable
	}
	return a, nil
}
