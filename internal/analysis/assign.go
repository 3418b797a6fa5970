package analysis

import (
	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// Chain is the analysis view of one split task: its entities in part
// order (body parts, then the tail).
type Chain struct {
	Split    *task.Split
	Entities []*Entity
}

// Cores is the per-core analysis view of an assignment.
type Cores struct {
	Sets   []*CoreSet
	Chains []*Chain
}

// BuildCores expands an assignment into per-core entity sets and
// split chains under the given overhead model.
func BuildCores(a *task.Assignment, m *overhead.Model) *Cores {
	perCore := make([][]*Entity, a.NumCores)
	var chains []*Chain
	for c := 0; c < a.NumCores; c++ {
		for _, t := range a.Normal[c] {
			perCore[c] = append(perCore[c], &Entity{
				Task:          t,
				C:             t.WCET,
				T:             t.Period,
				D:             t.EffectiveDeadline(),
				LocalPriority: t.Priority,
			})
		}
	}
	for _, sp := range a.Splits {
		ch := &Chain{Split: sp}
		last := len(sp.Parts) - 1
		for i, p := range sp.Parts {
			e := &Entity{
				Task:           sp.Task,
				C:              p.Budget,
				T:              sp.Task.Period,
				D:              sp.Task.EffectiveDeadline(),
				LocalPriority:  sp.LocalPriority(),
				PartIndex:      i,
				MigrIn:         i > 0,
				MigrOut:        i < last,
				RemoteSleepAdd: i == last,
			}
			perCore[p.Core] = append(perCore[p.Core], e)
			ch.Entities = append(ch.Entities, e)
		}
		chains = append(chains, ch)
	}
	// The queue-size bound N is global: "the maximal number of tasks
	// in the queue" (Section 3). Simulator and analysis share it.
	maxN := 0
	for c := 0; c < a.NumCores; c++ {
		if len(perCore[c]) > maxN {
			maxN = len(perCore[c])
		}
	}
	out := &Cores{Chains: chains}
	for c := 0; c < a.NumCores; c++ {
		out.Sets = append(out.Sets, NewCoreSet(perCore[c], maxN, m))
	}
	return out
}

// BuildCore expands only core c of a split-free assignment. Without
// chains there is no cross-core coupling, so single-core admission
// probes (the inner loop of every bin-packing partitioner) need not
// materialize the other cores. The queue bound N stays the global
// maximum, shared with the simulator.
func BuildCore(a *task.Assignment, c int, m *overhead.Model) *CoreSet {
	entities := make([]*Entity, 0, len(a.Normal[c]))
	for _, t := range a.Normal[c] {
		entities = append(entities, &Entity{
			Task:          t,
			C:             t.WCET,
			T:             t.Period,
			D:             t.EffectiveDeadline(),
			LocalPriority: t.Priority,
		})
	}
	return NewCoreSet(entities, a.MaxTasksPerCore(), m)
}

// owner maps each entity to its hosting CoreSet.
func (cs *Cores) owner() map[*Entity]*CoreSet {
	out := make(map[*Entity]*CoreSet)
	for _, s := range cs.Sets {
		for _, e := range s.Entities {
			out[e] = s
		}
	}
	return out
}

// resolveJitters runs the split-chain fixed-point iteration: a part's
// jitter is the cumulative worst-case response time of its
// predecessors, so jitters start at zero and only grow; iteration
// stops when a pass leaves every jitter unchanged. Monotonicity
// guarantees termination: each pass either grows some jitter by ≥ 1
// tick or is the last, and jitters are bounded by the deadlines.
//
// Entities whose response-time test fails are collected and their
// response time capped at their deadline so that resolution can
// continue (a failed entity makes the whole assignment unschedulable
// anyway, but partial-assignment callers — the partitioners probing a
// single core — need the other chains' jitters to settle). The cap
// never understates a *passing* entity's jitter contribution because
// a passing response time is ≤ D − J ≤ D.
func (cs *Cores) resolveJitters(m *overhead.Model) map[*Entity]bool {
	const maxPasses = 1000
	failed := make(map[*Entity]bool)
	owner := cs.owner()
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, ch := range cs.Chains {
			cum := timeq.Time(0)
			for _, e := range ch.Entities {
				if e.Jitter != cum {
					e.Jitter = cum
					changed = true
				}
				r, ok := owner[e].ResponseTime(e, m)
				if !ok {
					failed[e] = true
					r = e.D
				} else {
					delete(failed, e)
				}
				cum = timeq.AddSat(cum, r)
			}
		}
		if !changed || len(cs.Chains) == 0 {
			break
		}
	}
	return failed
}

// Schedulable runs the full admission test: per-core RTA with the
// split chains' release jitters resolved by fixed-point iteration.
func (cs *Cores) Schedulable(m *overhead.Model) bool {
	if len(cs.resolveJitters(m)) > 0 {
		return false
	}
	for _, s := range cs.Sets {
		if !s.CoreSchedulable(m) {
			return false
		}
	}
	return true
}

// SchedulableCore resolves chain jitters across the whole assignment
// and then tests only core c. The partitioners use this while probing
// placements: entities elsewhere may be provisional (e.g. the
// remainder of a split still being sized), so their failures must not
// veto the probe, but the jitter a settled chain imposes on core c
// must be included.
func (cs *Cores) SchedulableCore(c int, m *overhead.Model) bool {
	failed := cs.resolveJitters(m)
	set := cs.Sets[c]
	for _, e := range set.Entities {
		if failed[e] {
			return false
		}
		if _, ok := set.ResponseTime(e, m); !ok {
			return false
		}
	}
	return true
}

// ResponseTimes returns the final per-entity response times of a
// schedulable assignment for reporting; the boolean mirrors
// FixedPriorityRTA.Schedulable.
func ResponseTimes(a *task.Assignment, m *overhead.Model) (map[*Entity]timeq.Time, bool) {
	cores := BuildCores(a, m)
	if !cores.Schedulable(m) {
		return nil, false
	}
	out := make(map[*Entity]timeq.Time)
	for _, s := range cores.Sets {
		for _, e := range s.Entities {
			r, ok := s.ResponseTime(e, m)
			if !ok {
				return nil, false
			}
			out[e] = r
		}
	}
	return out, true
}
