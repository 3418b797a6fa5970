// Package analysis implements fixed-priority schedulability analysis
// for partitioned and semi-partitioned assignments, with the paper's
// measured overheads folded in (Section 4: "we integrate the obtained
// overhead into the state-of-the-art partitioned scheduling and
// semi-partitioned scheduling algorithms").
//
// The unit of analysis is the Entity: one schedulable object on one
// core. An unsplit task is one entity; a split task contributes one
// entity per part, linked into a chain whose release jitters are
// resolved by fixed-point iteration across cores.
//
// # Overhead accounting
//
// Every overhead the simulator charges is billed to exactly one
// entity, so the response-time analysis upper-bounds the simulation:
//
//   - timer arrival: rls + θdel + δadd (the release path), then
//     sch + cnt1 plus the victim-requeue δadd and dispatch δdel of the
//     preemption the arrival may cause;
//   - migration arrival: sch + cnt1 + victim δadd + dispatch δdel,
//     plus the migration cache reload (CPMD);
//   - departure: sch + cnt2 + the sleep-queue insert (remote for a
//     migrated tail) or the remote ready-queue insert (body parts),
//     plus the δdel that dispatches the next local job;
//   - one CacheMax charge per job for the cache reload of whichever
//     task it preempted.
//
// Kernel segments are non-preemptible, so each entity also suffers a
// blocking term B (lower-priority release batches, an in-progress
// departure segment, and one spilled arrival segment) and
// lower-priority timer releases are charged as interference — both
// effects the paper's Figure 1 timeline makes visible.
package analysis

import (
	"fmt"
	"sort"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// Entity is one schedulable object hosted on one core: either a whole
// task or one part of a split task.
type Entity struct {
	// Task is the underlying task.
	Task *task.Task
	// C is the execution budget on this core: the WCET for an
	// unsplit task, the part budget for a split part.
	C timeq.Time
	// T is the period (inherited from the task).
	T timeq.Time
	// D is the deadline the chain must meet (inherited; the chain
	// constraint R_tail + J_tail ≤ D is what matters for splits).
	D timeq.Time
	// LocalPriority is the effective priority on this core; smaller
	// is higher. Split parts run at the highest local priorities
	// (task.SplitLocalPriority).
	LocalPriority int
	// Jitter is the release jitter: zero for timer-released
	// entities, and the cumulative response time of the preceding
	// parts for the 2nd..tail parts of a split task.
	Jitter timeq.Time

	// PartIndex is the position in the split chain (0 for unsplit
	// tasks and first parts).
	PartIndex int
	// MigrIn marks an entity that arrives by migration (parts 1..tail).
	MigrIn bool
	// MigrOut marks an entity that departs by migration (body parts).
	MigrOut bool
	// RemoteSleepAdd marks the tail part: on completion the job is
	// inserted into the *home* core's sleep queue, a remote add.
	RemoteSleepAdd bool
}

// String renders the entity for diagnostics.
func (e *Entity) String() string {
	s := fmt.Sprintf("%v part=%d C=%v prio=%d", e.Task, e.PartIndex, e.C, e.LocalPriority)
	if e.Jitter > 0 {
		s += fmt.Sprintf(" J=%v", e.Jitter)
	}
	return s
}

// CoreSet is the set of entities hosted on one core, with the
// parameters the overhead model needs.
type CoreSet struct {
	Entities []*Entity
	// N is the queue-size bound used for δ(N) and θ(N). Following
	// the paper ("N is the maximal number of tasks in the queue"),
	// this is the maximum entity count over all cores of the
	// assignment, shared by analysis and simulator.
	N int
	// CacheMax is the worst CPMD any entity on this core pays on
	// resume; a preempting job is charged this once per release.
	CacheMax timeq.Time

	// Evaluation-cost cache (see ensureCosts): the per-entity
	// inflated budgets and blocking terms, plus the shared release
	// cost and departure/arrival maxima, computed once per
	// (entity set, N, model) instead of once per fixed-point solve.
	// Everything here is a pure function of the fields above, so the
	// cache never changes a decision — it only removes repeated
	// queue-cost interpolation from the solver's hot path.
	costsOK    bool
	costsModel *overhead.Model
	costsN     int
	costsLen   int
	relCost    timeq.Time
	// Queue-op cost memo keyed (model, N) only: it survives
	// invalidateCosts — swapping entities does not move these six
	// interpolations — so the per-probe cache refill skips the log₂
	// interpolation entirely while the queue bound is stable. The probe
	// engine fills it from its scratch's modelMemo, which also hits
	// across queue bounds and sessions.
	qcOK       bool
	qcModel    *overhead.Model
	qcN        int
	qc         queueCostSet
	infl       []timeq.Time
	blocking   []timeq.Time
	maxDep     timeq.Time
	maxArr     timeq.Time
	perRelease timeq.Time
	nonMigr    int

	// Struct-of-arrays mirrors of the immutable entity parameters,
	// filled by the same ensureCosts pass and parallel to Entities:
	// the response-time and demand-bound inner loops iterate these
	// flat slices instead of chasing *Entity pointers, so the
	// fixed-point hot path touches contiguous memory and performs no
	// per-iteration loads through entity headers. Jitter is NOT
	// mirrored here: the owner's chain resolution mutates it without
	// invalidating this cache, so responseTime refreshes soaJ per
	// solve instead.
	soaT    []timeq.Time
	soaD    []timeq.Time
	soaPrio []int32
	soaMigr []bool
	// prioNarrow reports that every LocalPriority fit int32; the
	// solver falls back to the entity walk otherwise (priorities are
	// small in practice — RM ranks and the split boost — so the
	// fallback is defensive only).
	prioNarrow bool

	// Solver scratch, valid only within one responseTime call: the
	// per-solve jitter refresh and the per-entity interference
	// coefficients classified against the solved entity's priority.
	soaJ    []timeq.Time
	soaCoef []timeq.Time
}

// invalidateCosts drops the evaluation-cost cache; callers that
// mutate Entities in place (the admission contexts' scratch sets)
// must call it, since a same-length entity swap is invisible to the
// (model, N, len) key.
func (cs *CoreSet) invalidateCosts() { cs.costsOK = false }

// ensureCosts fills the evaluation-cost cache. The cached values are
// exactly what InflatedCost, Blocking and ReleaseCost return for the
// current (Entities, N, CacheMax, model); they are computed in one
// pass so a k-entity evaluation performs O(k) queue-cost
// interpolations instead of O(k²).
func (cs *CoreSet) ensureCosts(m *overhead.Model) {
	if cs.costsOK && cs.costsModel == m && cs.costsN == cs.N && cs.costsLen == len(cs.Entities) {
		return
	}
	k := len(cs.Entities)
	if cap(cs.infl) < k {
		cs.infl = make([]timeq.Time, k)
		cs.blocking = make([]timeq.Time, k)
		cs.soaT = make([]timeq.Time, k)
		cs.soaD = make([]timeq.Time, k)
		cs.soaPrio = make([]int32, k)
		cs.soaMigr = make([]bool, k)
	}
	cs.infl = cs.infl[:k]
	cs.blocking = cs.blocking[:k]
	cs.soaT = cs.soaT[:k]
	cs.soaD = cs.soaD[:k]
	cs.soaPrio = cs.soaPrio[:k]
	cs.soaMigr = cs.soaMigr[:k]
	cs.prioNarrow = true
	// The six queue-operation costs at this N, interpolated once and
	// reused for every entity (arrivalCost/departureCost/ReleaseCost
	// spelled out with the shared constants).
	cs.queueCosts(m, cs.N)
	dReadyAddL := cs.qc.ops[0]
	dReadyDelL := cs.qc.ops[1]
	dReadyAddR := cs.qc.ops[2]
	dSleepAddL := cs.qc.ops[3]
	dSleepAddR := cs.qc.ops[4]
	dSleepDelL := cs.qc.ops[5]
	cs.relCost = m.Release + dSleepDelL + dReadyAddL + m.Sched
	cs.maxDep, cs.maxArr = 0, 0
	cs.nonMigr = 0
	sorted := true
	for i, e := range cs.Entities {
		if i > 0 && cs.Entities[i-1].LocalPriority > e.LocalPriority {
			sorted = false
		}
		cs.soaT[i] = e.T
		cs.soaD[i] = e.D
		cs.soaMigr[i] = e.MigrIn
		cs.soaPrio[i] = int32(e.LocalPriority)
		if int(cs.soaPrio[i]) != e.LocalPriority {
			cs.prioNarrow = false
		}
		var arr timeq.Time
		if e.MigrIn {
			arr = m.Sched + m.Cache.Delay(e.Task.WSS, true)
		} else {
			arr = cs.relCost
		}
		arr += dReadyAddL + dReadyDelL + m.CtxSwitch
		dep := m.Sched + m.CtxSwitch
		switch {
		case e.MigrOut:
			dep += dReadyAddR
		case e.RemoteSleepAdd:
			dep += dSleepAddR
		default:
			dep += dSleepAddL
		}
		dep += dReadyDelL
		cs.infl[i] = e.C + arr + dep + cs.CacheMax
		if dep > cs.maxDep {
			cs.maxDep = dep
		}
		if arr > cs.maxArr {
			cs.maxArr = arr
		}
		if !e.MigrIn {
			cs.nonMigr++
		}
	}
	if m.IsZero() {
		cs.perRelease = 0
		for i := range cs.blocking {
			cs.blocking[i] = 0
		}
	} else {
		cs.perRelease = m.Release + dSleepDelL + dReadyAddL
		if sorted {
			// Entities are priority-sorted (NewCoreSet's stable sort,
			// maintained by insertByPriority), so every member of a
			// priority tie group shares one strictly-lower-priority
			// non-migrated count: the non-migrated suffix beyond the
			// group. A right-to-left group scan computes the same
			// counts as the pairwise walks below in O(k).
			suffix := 0
			for i := k - 1; i >= 0; {
				j := i
				groupNM := 0
				for j >= 0 && cs.Entities[j].LocalPriority == cs.Entities[i].LocalPriority {
					if !cs.soaMigr[j] {
						groupNM++
					}
					j--
				}
				batch := cs.perRelease * timeq.Time(suffix)
				if batch > 0 {
					batch += m.Sched
				}
				bval := batch + cs.maxDep + cs.maxArr
				for t := j + 1; t <= i; t++ {
					cs.blocking[t] = bval
				}
				suffix += groupNM
				i = j
			}
		} else if cs.prioNarrow {
			// Count lower-priority timer-released entities over the flat
			// mirrors (index inequality equals pointer inequality:
			// entities are unique within a set).
			for i := 0; i < k; i++ {
				pi := cs.soaPrio[i]
				n := 0
				for j := 0; j < k; j++ {
					if j != i && cs.soaPrio[j] > pi && !cs.soaMigr[j] {
						n++
					}
				}
				batch := cs.perRelease * timeq.Time(n)
				if batch > 0 {
					batch += m.Sched
				}
				cs.blocking[i] = batch + cs.maxDep + cs.maxArr
			}
		} else {
			for i, e := range cs.Entities {
				n := 0
				for _, o := range cs.Entities {
					if o != e && o.LocalPriority > e.LocalPriority && !o.MigrIn {
						n++
					}
				}
				batch := cs.perRelease * timeq.Time(n)
				if batch > 0 {
					batch += m.Sched
				}
				cs.blocking[i] = batch + cs.maxDep + cs.maxArr
			}
		}
	}
	cs.costsOK = true
	cs.costsModel = m
	cs.costsN = cs.N
	cs.costsLen = k
}

// queueCosts fills the (model, N) queue-cost memo for queue bound n
// and returns the plain entity's arrival plus departure charge — what
// ensureCosts charges an entity that is neither migrated in nor out
// nor a migrated tail.
func (cs *CoreSet) queueCosts(m *overhead.Model, n int) timeq.Time {
	if !cs.qcOK || cs.qcModel != m || cs.qcN != n {
		cs.useQueueCosts(m, n, newQueueCostSet(m, n))
	}
	return cs.qc.plain
}

// useQueueCosts installs set, the queue costs at (m, n), as the memo.
func (cs *CoreSet) useQueueCosts(m *overhead.Model, n int, set queueCostSet) {
	cs.qc, cs.qcOK, cs.qcModel, cs.qcN = set, true, m, n
}

// queueOps are the six queue operations ensureCosts charges, in the
// order of queueCostSet.ops.
var queueOps = [6]overhead.QueueOp{
	{Op: overhead.ReadyAdd}, {Op: overhead.ReadyDelete}, {Op: overhead.ReadyAdd, Remote: true},
	{Op: overhead.SleepAdd}, {Op: overhead.SleepAdd, Remote: true}, {Op: overhead.SleepDelete},
}

// queueCostSet is what the cost cache reads of the model at one queue
// bound: the six queue-operation costs of queueOps, and plain, the
// arrival plus departure charge of a plain entity (timer released,
// departing to its local sleep queue).
type queueCostSet struct {
	ops   [6]timeq.Time
	plain timeq.Time
}

// newQueueCostSet interpolates the set at (m, n) from one log₂(n).
func newQueueCostSet(m *overhead.Model, n int) queueCostSet {
	var q queueCostSet
	m.QueueOpCosts(n, queueOps[:], q.ops[:])
	arr := m.Release + q.ops[5] + q.ops[0] + m.Sched + q.ops[0] + q.ops[1] + m.CtxSwitch
	dep := m.Sched + m.CtxSwitch + q.ops[3] + q.ops[1]
	q.plain = arr + dep
	return q
}

// modelMemo keeps what the probe engine reads of a model across the
// queue bounds, tasks and sessions one probe scratch serves — the
// queue-cost set per bound, and the cache delay of the last working
// set probed. A pooled reader scratch probes for every session, each
// with a model of its own (mostly with equal contents), at the bounds
// its cores reach, so the memo is keyed by the model's contents, with
// one queue-cost slot per bound modulo its size.
type modelMemo struct {
	model *overhead.Model // the last model seen; its contents are key
	key   overhead.Model
	slots [16]struct {
		ok  bool
		n   int
		set queueCostSet
	}
	cmOK  bool
	cmWSS int64
	cm    timeq.Time
	zero  bool // the model is the zero model (Model.IsZero)
}

// use keys the memo to m's contents.
func (q *modelMemo) use(m *overhead.Model) {
	if m != q.model {
		if q.model == nil || *m != q.key {
			q.key = *m
			clear(q.slots[:])
			q.cmOK = false
			q.zero = m.IsZero()
		}
		q.model = m
	}
}

// queueCosts returns the set at (m, n).
func (q *modelMemo) queueCosts(m *overhead.Model, n int) *queueCostSet {
	q.use(m)
	s := &q.slots[uint(n)%uint(len(q.slots))]
	if !s.ok || s.n != n {
		s.ok, s.n, s.set = true, n, newQueueCostSet(m, n)
	}
	return &s.set
}

// maxDelay returns m.Cache.MaxDelay(wss).
func (q *modelMemo) maxDelay(m *overhead.Model, wss int64) timeq.Time {
	q.use(m)
	if !q.cmOK || q.cmWSS != wss {
		q.cmOK, q.cmWSS, q.cm = true, wss, m.Cache.MaxDelay(wss)
	}
	return q.cm
}

// NewCoreSet builds a CoreSet over the given queue-size bound n and
// derives CacheMax from the entity list and the model's cache
// parameters.
func NewCoreSet(entities []*Entity, n int, m *overhead.Model) *CoreSet {
	if n < len(entities) {
		n = len(entities)
	}
	cs := &CoreSet{Entities: entities, N: n}
	for _, e := range entities {
		if d := m.Cache.MaxDelay(e.Task.WSS); d > cs.CacheMax {
			cs.CacheMax = d
		}
	}
	sort.SliceStable(cs.Entities, func(i, j int) bool {
		return cs.Entities[i].LocalPriority < cs.Entities[j].LocalPriority
	})
	return cs
}

// delta is the local ready-queue op cost δ at this core's N.
func (cs *CoreSet) delta(m *overhead.Model, op overhead.Op, remote bool) timeq.Time {
	return m.QueueOpCost(op, cs.N, remote)
}

// ReleaseCost is the kernel time of one timer release excluding any
// context switch: rls + θdel + δadd + sch. Lower-priority releases
// hit a running entity with exactly this much interference.
func (cs *CoreSet) ReleaseCost(m *overhead.Model) timeq.Time {
	return m.Release +
		cs.delta(m, overhead.SleepDelete, false) +
		cs.delta(m, overhead.ReadyAdd, false) +
		m.Sched
}

// arrivalCost is the total arrival charge of e: the release or
// migration-arrival path plus the context switch it may cause
// (victim requeue δadd, dispatch δdel, cnt1) and, for migrated parts,
// the cache reload.
func (cs *CoreSet) arrivalCost(e *Entity, m *overhead.Model) timeq.Time {
	var c timeq.Time
	if e.MigrIn {
		c += m.Sched
		c += m.Cache.Delay(e.Task.WSS, true)
	} else {
		c += cs.ReleaseCost(m) // includes sch
	}
	c += cs.delta(m, overhead.ReadyAdd, false)    // victim requeue
	c += cs.delta(m, overhead.ReadyDelete, false) // own dispatch
	c += m.CtxSwitch                              // cnt1
	return c
}

// departureCost is the total departure charge of e: the finish or
// budget-exhaustion path including the dispatch of the next local job.
func (cs *CoreSet) departureCost(e *Entity, m *overhead.Model) timeq.Time {
	c := m.Sched + m.CtxSwitch // sch + cnt2
	if e.MigrOut {
		c += cs.delta(m, overhead.ReadyAdd, true)
	} else {
		c += cs.delta(m, overhead.SleepAdd, e.RemoteSleepAdd)
	}
	c += cs.delta(m, overhead.ReadyDelete, false) // next job's dispatch
	return c
}

// InflatedCost returns the entity's budget inflated with every
// overhead charge billed to it (see the package comment).
func (cs *CoreSet) InflatedCost(e *Entity, m *overhead.Model) timeq.Time {
	return e.C + cs.arrivalCost(e, m) + cs.departureCost(e, m) + cs.CacheMax
}

// Blocking returns the non-preemptible-segment blocking term B for
// entity e: a simultaneous batch of lower-priority timer releases, an
// in-progress departure segment, and one spilled arrival segment.
// Kernel segments are µs-scale, so B is small against ms deadlines,
// but ignoring it would let the simulator overrun the analysis.
func (cs *CoreSet) Blocking(e *Entity, m *overhead.Model) timeq.Time {
	if m.IsZero() {
		return 0
	}
	var b timeq.Time
	perRelease := m.Release +
		cs.delta(m, overhead.SleepDelete, false) +
		cs.delta(m, overhead.ReadyAdd, false)
	batch := timeq.Time(0)
	for _, o := range cs.Entities {
		if o.LocalPriority > e.LocalPriority && !o.MigrIn {
			batch += perRelease
		}
	}
	if batch > 0 {
		batch += m.Sched
	}
	b += batch
	var maxDep, maxArr timeq.Time
	for _, o := range cs.Entities {
		if d := cs.departureCost(o, m); d > maxDep {
			maxDep = d
		}
		if a := cs.arrivalCost(o, m); a > maxArr {
			maxArr = a
		}
	}
	return b + maxDep + maxArr
}
