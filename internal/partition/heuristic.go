package partition

import (
	"fmt"

	"repro/internal/overhead"
	"repro/internal/task"
)

// Fit selects the bin-packing placement rule.
type Fit int

const (
	// FirstFit places the task on the lowest-indexed core that
	// admits it.
	FirstFit Fit = iota
	// BestFit places the task on the admitting core with the least
	// remaining utilization (tightest fit).
	BestFit
	// WorstFit places the task on the admitting core with the most
	// remaining utilization (spreads load; the paper's WFD).
	WorstFit
)

// String names the fit rule.
func (f Fit) String() string {
	switch f {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	default:
		return fmt.Sprintf("Fit(%d)", int(f))
	}
}

// Order selects the order in which tasks are offered to the packer.
type Order int

const (
	// DecreasingUtilization is the "D" in FFD/WFD/BFD.
	DecreasingUtilization Order = iota
	// PriorityOrder offers tasks from highest to lowest RM priority.
	PriorityOrder
)

// Heuristic is a partitioned (no-splitting) bin-packing algorithm.
type Heuristic struct {
	Fit   Fit
	Order Order
	name  string
}

// The paper's two partitioned baselines, plus companions.
var (
	// FFD is first-fit decreasing-utilization partitioning.
	FFD = &Heuristic{Fit: FirstFit, Order: DecreasingUtilization, name: "FFD"}
	// WFD is worst-fit decreasing-utilization partitioning.
	WFD = &Heuristic{Fit: WorstFit, Order: DecreasingUtilization, name: "WFD"}
	// BFD is best-fit decreasing-utilization partitioning.
	BFD = &Heuristic{Fit: BestFit, Order: DecreasingUtilization, name: "BFD"}
	// FF is first-fit in priority order.
	FF = &Heuristic{Fit: FirstFit, Order: PriorityOrder, name: "FF"}
)

// Name returns the conventional algorithm name.
func (h *Heuristic) Name() string {
	if h.name != "" {
		return h.name
	}
	return fmt.Sprintf("%v/%v", h.Fit, h.Order)
}

// Policy declares fixed-priority dispatching.
func (h *Heuristic) Policy() task.Policy { return task.FixedPriority }

// Partition assigns every task whole to some core, admitting every
// probe through one admission context threaded across the whole
// packing loop, or fails with ErrUnschedulable.
func (h *Heuristic) Partition(s *task.Set, m int, model *overhead.Model) (*task.Assignment, error) {
	return h.PartitionOpts(s, m, model, Options{})
}

// PartitionOpts is Partition with a stats sink and an arena.
func (h *Heuristic) PartitionOpts(s *task.Set, m int, model *overhead.Model, o Options) (*task.Assignment, error) {
	model = overhead.Normalize(model)
	if err := validateInput(s, m, h.Policy()); err != nil {
		return nil, err
	}
	var order []*task.Task
	switch h.Order {
	case PriorityOrder:
		order = s.SortedByPriority()
	default:
		order = s.SortedByUtilizationDesc()
	}
	a := o.newAssignment(h.Policy(), m)
	ctx := newContext(h, a, model, o)
	defer ctx.Flush()
	co := o.newCoreOrder()
	for _, t := range order {
		if !placeByFit(ctx, a, t, h.Fit, m, co) {
			return nil, ErrUnschedulable
		}
	}
	return finalize(ctx, a)
}
