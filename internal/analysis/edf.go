package analysis

import (
	"slices"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// EDF schedulability: the paper's Section 2 notes the implementation
// "can be easily extended to support a wide range of semi-partitioned
// algorithms based on both fixed-priority and EDF scheduling"; this
// file provides the EDF admission side.
//
// Per-core EDF schedulability uses the processor-demand criterion for
// constrained-deadline sporadic tasks,
//
//	∀t ∈ deadlines ≤ L:  Σᵢ dbfᵢ(t) + rel(t) + B ≤ t
//	dbfᵢ(t) = max(0, ⌊(t − Dᵢ)/Tᵢ⌋ + 1) · C'ᵢ
//
// with the same overhead-inflated budgets C', release-path
// interference rel(t) (every timer release consumes kernel time
// regardless of deadline order) and non-preemptible-segment blocking
// B as the fixed-priority analysis. Split tasks use EDF-WM-style
// deadline windows: part k of a split is an independent sporadic
// task (Budget, Window_k, T) on its core, released at the window
// start — windows decouple the cores, so no cross-core fixpoint is
// needed.
//
// Two tests decide the criterion. The stateless oracle below lists
// every absolute deadline up to L and checks them in ascending order;
// the incremental engine walks down from L over a handful of them
// (edfDemandWalk in engine.go), with its own evaluation of the demand.
// What they share is everything before the first deadline is looked
// at — the screens, B and L: edfHorizon.

// EDFCoreSchedulable runs the processor-demand test on one core: the
// naive enumeration every other EDF verdict in the package is compared
// against.
func (cs *CoreSet) EDFCoreSchedulable(m *overhead.Model) bool {
	l, b, ok := cs.edfHorizon(m)
	if !ok {
		return false
	}
	// Test every absolute deadline up to L.
	pts, ok := cs.deadlinePoints(l)
	if !ok {
		return false
	}
	k := len(cs.Entities)
	infl, rel := cs.infl[:k], cs.relCost
	periods, deadlines, migr := cs.soaT[:k], cs.soaD[:k], cs.soaMigr[:k]
	for _, t := range pts {
		var demand timeq.Time
		ti := int64(t)
		for i := 0; i < k; i++ {
			d := deadlines[i]
			if t < d {
				continue
			}
			n := (ti-int64(d))/int64(periods[i]) + 1
			demand = timeq.AddSat(demand, timeq.MulCount(infl[i], n))
		}
		if rel > 0 {
			for i := 0; i < k; i++ {
				if migr[i] {
					continue
				}
				demand = timeq.AddSat(demand, timeq.MulCount(rel, timeq.CeilDiv(t, periods[i])))
			}
		}
		if timeq.AddSat(demand, b) > t {
			return false
		}
	}
	return true
}

// edfHorizon is the part of the demand test that looks at no deadline:
// the per-entity C' ≤ D screen, the inflated-utilization screen (above
// 1 there is no busy period), the blocking term b and the synchronous
// busy period, whose extension over the largest relative deadline is
// the test horizon l. ok is false when a screen rejects the core or the
// busy period does not converge. It fills the cost cache and the flat
// mirrors both tests go on to read.
func (cs *CoreSet) edfHorizon(m *overhead.Model) (l, b timeq.Time, ok bool) {
	cs.ensureCosts(m)
	infl := cs.infl
	rel := cs.relCost
	// The loops iterate the flat struct-of-arrays mirrors (periods,
	// deadlines, migration flags) filled by ensureCosts; the summation
	// order matches the entity order exactly, so the order-sensitive
	// floating-point utilization sum is bit-identical to the entity
	// walk.
	k := len(cs.Entities)
	periods, deadlines, migr := cs.soaT[:k], cs.soaD[:k], cs.soaMigr[:k]
	uNum := 0.0
	for i := 0; i < k; i++ {
		uNum += float64(infl[i]) / float64(periods[i])
		if !migr[i] && rel > 0 {
			// Double-charge the release path as unconditional load;
			// conservative (see rta.go for the FP analog).
			uNum += float64(rel) / float64(periods[i])
		}
		if deadlines[i] < infl[i] {
			return 0, 0, false
		}
	}
	if uNum > 1 {
		return 0, 0, false
	}
	b = cs.edfMaxBlocking(m)
	l = cs.edfBusyPeriod(infl, rel, b)
	return l, b, l != timeq.Infinity
}

// edfMaxBlocking is max over entities of edfBlocking, computed in one
// pass from the evaluation-cost cache: the departure/arrival maxima
// are shared, so only the release-batch count varies — it is largest
// for a migration-arrival entity (every timer release counts) and
// nonMigr−1 otherwise.
func (cs *CoreSet) edfMaxBlocking(m *overhead.Model) timeq.Time {
	if m.IsZero() || len(cs.Entities) == 0 {
		return 0
	}
	cs.ensureCosts(m)
	cnt := cs.nonMigr
	if cnt == len(cs.Entities) {
		cnt-- // every entity timer-released: the batch excludes e itself
	}
	if cnt < 0 {
		cnt = 0
	}
	batch := cs.perRelease * timeq.Time(cnt)
	if batch > 0 {
		batch += m.Sched
	}
	return batch + cs.maxDep + cs.maxArr
}

// edfBlocking bounds the non-preemptible kernel segments that can
// delay entity e under EDF: one in-progress departure, one spilled
// arrival, and a simultaneous batch of other timer releases (EDF has
// no static priority order, so every other entity's batch counts).
func (cs *CoreSet) edfBlocking(e *Entity, m *overhead.Model) timeq.Time {
	if m.IsZero() {
		return 0
	}
	perRelease := m.Release +
		cs.delta(m, overhead.SleepDelete, false) +
		cs.delta(m, overhead.ReadyAdd, false)
	var batch timeq.Time
	for _, o := range cs.Entities {
		if o != e && !o.MigrIn {
			batch += perRelease
		}
	}
	if batch > 0 {
		batch += m.Sched
	}
	var maxDep, maxArr timeq.Time
	for _, o := range cs.Entities {
		if d := cs.departureCost(o, m); d > maxDep {
			maxDep = d
		}
		if a := cs.arrivalCost(o, m); a > maxArr {
			maxArr = a
		}
	}
	return batch + maxDep + maxArr
}

// edfBusyPeriod computes the synchronous busy period with inflated
// costs, iterated from the cold start B + ΣC′, and extends it over the
// largest relative deadline: the test horizon L, or Infinity when the
// iteration does not converge within maxBusyIterations.
func (cs *CoreSet) edfBusyPeriod(infl []timeq.Time, rel, b timeq.Time) timeq.Time {
	w := b
	for _, c := range infl {
		w += c
	}
	if w == 0 {
		return 0
	}
	// Iterate the flat mirrors (the caller ran ensureCosts — infl is
	// its cache, so the mirrors are filled and parallel).
	k := len(cs.Entities)
	periods, migr := cs.soaT[:k], cs.soaMigr[:k]
	for iter := 0; iter < maxBusyIterations; iter++ {
		next := b
		for i := 0; i < k; i++ {
			n := timeq.CeilDiv(w, periods[i])
			next = timeq.AddSat(next, timeq.MulCount(infl[i], n))
			if rel > 0 && !migr[i] {
				next = timeq.AddSat(next, timeq.MulCount(rel, n))
			}
		}
		if next == w {
			// Also cover the largest relative deadline.
			for i := 0; i < k; i++ {
				w = timeq.Max(w, cs.soaD[i])
			}
			return w
		}
		w = next
	}
	return timeq.Infinity
}

// deadlinePointCap bounds the number of absolute deadlines tested per
// core; beyond it the set is treated as unschedulable rather than
// spending unbounded analysis time (only pathological period ratios
// reach it).
const deadlinePointCap = 2_000_000

// deadlinePoints enumerates the absolute deadlines ≤ l, sorted and
// deduplicated; false when there are more than deadlinePointCap of
// them, counted before deduplication.
func (cs *CoreSet) deadlinePoints(l timeq.Time) ([]timeq.Time, bool) {
	var pts []timeq.Time
	for _, e := range cs.Entities {
		for t := e.D; t <= l; t += e.T {
			pts = append(pts, t)
			if len(pts) > deadlinePointCap {
				return nil, false
			}
		}
	}
	slices.Sort(pts)
	return slices.Compact(pts), true
}

// edfEntities collects core c's entities under EDF semantics: split
// parts become window-deadline sporadic tasks. Splits must carry
// Windows (see partition.EDFWM).
func edfEntities(a *task.Assignment, c int) []*Entity {
	var out []*Entity
	for _, t := range a.Normal[c] {
		out = append(out, &Entity{
			Task: t,
			C:    t.WCET,
			T:    t.Period,
			D:    t.EffectiveDeadline(),
		})
	}
	for _, sp := range a.Splits {
		last := len(sp.Parts) - 1
		for i, p := range sp.Parts {
			if p.Core != c {
				continue
			}
			d := sp.Task.EffectiveDeadline()
			if sp.HasWindows() {
				d = sp.Windows[i]
			}
			out = append(out, &Entity{
				Task:           sp.Task,
				C:              p.Budget,
				T:              sp.Task.Period,
				D:              d,
				PartIndex:      i,
				MigrIn:         i > 0,
				MigrOut:        i < last,
				RemoteSleepAdd: i == last,
			})
		}
	}
	return out
}

// EDFBuildCore expands only core c. Deadline windows decouple the
// cores under EDF, so single-core admission probes — including ones
// on split parts — never need the rest of the assignment.
func EDFBuildCore(a *task.Assignment, c int, m *overhead.Model) *CoreSet {
	return NewCoreSet(edfEntities(a, c), a.MaxTasksPerCore(), m)
}

// EDFBuildCores expands an assignment into per-core entity sets under
// EDF semantics.
func EDFBuildCores(a *task.Assignment, m *overhead.Model) []*CoreSet {
	maxN := a.MaxTasksPerCore()
	var out []*CoreSet
	for c := 0; c < a.NumCores; c++ {
		out = append(out, NewCoreSet(edfEntities(a, c), maxN, m))
	}
	return out
}
