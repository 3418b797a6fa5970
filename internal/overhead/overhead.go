// Package overhead models the run-time overheads the paper measures in
// Section 3 and folds into the schedulability comparison of Section 4:
//
//   - rls: the release function (insert into the ready queue),
//   - sch: the scheduling function (pick highest priority, requeue a
//     preempted task),
//   - cnt1/cnt2: the two context-switch cases of cnt_swth(),
//   - δ(N): the worst-case cost of a single ready-queue operation when
//     the queue holds up to N tasks,
//   - θ(N): the same for the sleep queue,
//   - cache: the cache-related preemption/migration delay (CPMD).
//
// The package ships the paper's measured values (Table 1 plus the
// rls/sch/cnt numbers quoted in the text) as PaperModel, and a Zero
// model for overhead-free "theoretical" analysis.
package overhead

import (
	"fmt"
	"math"

	"repro/internal/timeq"
)

// Op identifies a queue operation kind in Table 1.
type Op int

// Table 1 rows.
const (
	SleepAdd Op = iota
	SleepDelete
	ReadyAdd
	ReadyDelete
	numOps
)

var opNames = [...]string{"sleep queue – add", "sleep queue – delete", "ready queue – add", "ready queue – delete"}

// String returns the paper's row label for the operation.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// QueueCosts holds the measured worst-case duration of one queue
// operation at the two calibration points of Table 1 (N = 4 and
// N = 64 tasks in the queue), for local and remote access. Remote
// deletes do not occur in the protocol (a core only removes entries
// from its own queues), matching the N/A cells of Table 1.
type QueueCosts struct {
	// LocalN4[op], LocalN64[op]: local access at the two anchors.
	LocalN4, LocalN64 [numOps]timeq.Time
	// RemoteN4, RemoteN64: cross-core access (only the add
	// operations are meaningful).
	RemoteN4, RemoteN64 [numOps]timeq.Time
}

// Cost interpolates the duration of op on a queue bounded by n tasks.
// Queue operations on a binomial heap or red-black tree cost
// O(log n), so interpolation is linear in log2(n) between the anchors
// and extrapolates with the same slope, clamped below at the N=4
// value (a near-empty queue is not cheaper than the measured floor).
func (q *QueueCosts) Cost(op Op, n int, remote bool) timeq.Time {
	return q.costAt(op, n, queueFrac(n), remote)
}

// queueFrac is where queue bound n sits between the anchors, linear in
// log2(n): 0 at n = 4, 1 at n = 64 (slope per doubling between
// log2(4) = 2 and log2(64) = 6). It is 0 for n ≤ 4, which costAt
// clamps to the N = 4 value anyway.
func queueFrac(n int) float64 {
	if n <= 4 {
		return 0
	}
	return (math.Log2(float64(n)) - 2) / 4
}

// costAt is Cost with n's interpolation position f = queueFrac(n)
// already taken.
func (q *QueueCosts) costAt(op Op, n int, f float64, remote bool) timeq.Time {
	lo, hi := q.LocalN4[op], q.LocalN64[op]
	if remote {
		lo, hi = q.RemoteN4[op], q.RemoteN64[op]
	}
	if n <= 4 {
		return lo
	}
	c := float64(lo) + f*float64(hi-lo)
	if c < float64(lo) {
		c = float64(lo)
	}
	return timeq.Time(math.Round(c))
}

// Model is the complete overhead parameterization used by both the
// analysis (WCET inflation) and the simulator (injected delays).
type Model struct {
	// Release is the pure execution time of release() excluding the
	// queue operation (the paper: 3µs).
	Release timeq.Time
	// Sched is the pure execution time of sch() (the paper: 5µs).
	Sched timeq.Time
	// CtxSwitch is the pure execution time of cnt_swth() (the paper:
	// 1.5µs); both cnt1 and cnt2 pay it.
	CtxSwitch timeq.Time
	// Queues are the Table 1 queue-operation costs.
	Queues QueueCosts
	// Cache is the cache-related preemption/migration delay model.
	Cache CacheModel
	// RemotePenalty scales the *extra* cost of remote queue
	// operations over local ones (1 = as measured). It exists for
	// the ablation bench; the paper's model corresponds to 1.
	RemotePenalty float64
}

// Zero returns a model in which every overhead is zero: the
// "theoretical" schedulability setting.
func Zero() *Model { return &Model{RemotePenalty: 1} }

// Normalize maps a nil model to the zero-overhead model, so every
// admission entry point (analyzers, contexts, partitioners) accepts
// nil. Non-nil models are returned unchanged.
func Normalize(m *Model) *Model {
	if m == nil {
		return Zero()
	}
	return m
}

// IsZero reports whether the model charges no overhead at all.
func (m *Model) IsZero() bool {
	return m.Release == 0 && m.Sched == 0 && m.CtxSwitch == 0 &&
		m.Queues == QueueCosts{} && m.Cache == CacheModel{}
}

const us = timeq.Microsecond

// PaperModel returns the overheads measured in the paper on the
// 4-core Intel Core-i7 (Table 1 and Section 3 text), with the cache
// model calibrated to the paper's qualitative finding that migration
// and local context-switch CPMD are the same order of magnitude under
// a shared L3.
func PaperModel() *Model {
	return &Model{
		Release:   3 * us,
		Sched:     5 * us,
		CtxSwitch: 1500 * timeq.Nanosecond, // 1.5µs
		Queues: QueueCosts{
			LocalN4: [numOps]timeq.Time{
				SleepAdd:    2500,
				SleepDelete: 3300,
				ReadyAdd:    1500,
				ReadyDelete: 2700,
			},
			LocalN64: [numOps]timeq.Time{
				SleepAdd:    4300,
				SleepDelete: 5800,
				ReadyAdd:    4400,
				ReadyDelete: 4600,
			},
			RemoteN4: [numOps]timeq.Time{
				SleepAdd: 2900,
				ReadyAdd: 3300,
			},
			RemoteN64: [numOps]timeq.Time{
				SleepAdd: 4400,
				ReadyAdd: 4600,
			},
		},
		Cache:         DefaultCacheModel(),
		RemotePenalty: 1,
	}
}

// Delta returns δ(N): the worst-case single ready-queue operation
// duration on a core hosting at most n tasks (Section 3 sets δ to the
// worst measured ready-queue op: 3.3µs at N=4, 4.6µs at N=64).
func (m *Model) Delta(n int) timeq.Time {
	d := m.Queues.Cost(ReadyAdd, n, false)
	if c := m.Queues.Cost(ReadyDelete, n, false); c > d {
		d = c
	}
	if c := m.remoteCost(ReadyAdd, n); c > d {
		d = c
	}
	return d
}

// Theta returns θ(N): the worst-case single sleep-queue operation
// duration (3.3µs at N=4 — the sleep delete —, 5.8µs at N=64).
func (m *Model) Theta(n int) timeq.Time {
	d := m.Queues.Cost(SleepAdd, n, false)
	if c := m.Queues.Cost(SleepDelete, n, false); c > d {
		d = c
	}
	if c := m.remoteCost(SleepAdd, n); c > d {
		d = c
	}
	return d
}

// remoteCost applies the RemotePenalty multiplier to the extra cost
// of a remote op over its local counterpart.
func (m *Model) remoteCost(op Op, n int) timeq.Time {
	return m.remoteCostAt(op, n, queueFrac(n))
}

// remoteCostAt is remoteCost at interpolation position f = queueFrac(n).
func (m *Model) remoteCostAt(op Op, n int, f float64) timeq.Time {
	local := m.Queues.costAt(op, n, f, false)
	remote := m.Queues.costAt(op, n, f, true)
	if remote <= local {
		return remote
	}
	p := m.RemotePenalty
	if p == 0 {
		p = 1
	}
	return local + timeq.Time(math.Round(float64(remote-local)*p))
}

// QueueOpCost returns the modeled duration of one queue operation,
// with the remote penalty applied. This is what the simulator charges
// at each queue touch.
func (m *Model) QueueOpCost(op Op, n int, remote bool) timeq.Time {
	return m.queueOpCostAt(op, n, queueFrac(n), remote)
}

func (m *Model) queueOpCostAt(op Op, n int, f float64, remote bool) timeq.Time {
	if !remote {
		return m.Queues.costAt(op, n, f, false)
	}
	return m.remoteCostAt(op, n, f)
}

// QueueOp names one queue operation and whether it is remote.
type QueueOp struct {
	Op     Op
	Remote bool
}

// QueueOpCosts sets out[i] to QueueOpCost(ops[i].Op, n, ops[i].Remote)
// for every i, taking log2(n) once for all of them. out must be at
// least as long as ops.
func (m *Model) QueueOpCosts(n int, ops []QueueOp, out []timeq.Time) {
	f := queueFrac(n)
	for i, o := range ops {
		out[i] = m.queueOpCostAt(o.Op, n, f, o.Remote)
	}
}

// WithRemotePenalty returns a copy of m with the remote-penalty
// multiplier set to p (ablation knob).
func (m *Model) WithRemotePenalty(p float64) *Model {
	cp := *m
	cp.RemotePenalty = p
	return &cp
}

// WithCache returns a copy of m with the cache model replaced.
func (m *Model) WithCache(c CacheModel) *Model {
	cp := *m
	cp.Cache = c
	return &cp
}

// Scale returns a copy of m with every time cost multiplied by f
// (sensitivity ablation: "what if all overheads were f× larger?").
func (m *Model) Scale(f float64) *Model {
	cp := *m
	sc := func(t timeq.Time) timeq.Time { return timeq.Time(math.Round(float64(t) * f)) }
	cp.Release = sc(m.Release)
	cp.Sched = sc(m.Sched)
	cp.CtxSwitch = sc(m.CtxSwitch)
	for op := Op(0); op < numOps; op++ {
		cp.Queues.LocalN4[op] = sc(m.Queues.LocalN4[op])
		cp.Queues.LocalN64[op] = sc(m.Queues.LocalN64[op])
		cp.Queues.RemoteN4[op] = sc(m.Queues.RemoteN4[op])
		cp.Queues.RemoteN64[op] = sc(m.Queues.RemoteN64[op])
	}
	cp.Cache = m.Cache.scale(f)
	return &cp
}
