package analysis

import (
	"math"

	"repro/internal/overhead"
	"repro/internal/timeq"
)

// maxBusyIterations caps the EDF busy-period fixed point
// (edfBusyPeriod): a busy period that has not converged after this
// many iterations makes the core unschedulable. The cap can turn a
// fixed point that exists into a miss, so an exact oracle must model
// it. The FP response-time iteration (fpFixedPoint) has no cap: it
// ends by itself.
const maxBusyIterations = 10000

// ResponseTime computes the worst-case response time of entity e on
// core cs under preemptive fixed-priority scheduling with release
// jitter and overheads, using the fixed-point iteration
//
//	R = C'ₑ + Bₑ + Σ_{j ∈ hp(e)} ⌈(R + Jⱼ)/Tⱼ⌉ · C'ⱼ
//	             + Σ_{j ∈ lp(e), timer} ⌈(R + Jⱼ)/Tⱼ⌉ · rel(j)
//
// where C' are overhead-inflated budgets, Bₑ is the non-preemptible
// kernel-segment blocking term, and rel(j) is the release-path cost a
// lower-priority timer release charges regardless of priority. The
// second result is false when the iteration exceeds the entity's
// deadline budget (D − Jitter), i.e. the entity is unschedulable.
//
// The returned response time is measured from the entity's own
// release (jitter excluded); the chain constraint is R + Jitter ≤ D.
func (cs *CoreSet) ResponseTime(e *Entity, m *overhead.Model) (timeq.Time, bool) {
	r, ok, _ := cs.responseTime(e, m, 0)
	return r, ok
}

// responseTime is the solver behind ResponseTime, extended with a
// start value and an iteration count (consumed by the incremental
// engine). start must be a lower bound on the least fixed point — the
// engine passes 0 or its screen's bound (rtaScreen). The iteration
// R ← f(R) is monotone, so from any point at or below the least fixed
// point it converges to exactly that fixed point: the result is
// identical to a cold start, only fewer iterations are spent. A start
// of 0 reproduces the cold start bit for bit.
func (cs *CoreSet) responseTime(e *Entity, m *overhead.Model, start timeq.Time) (timeq.Time, bool, int) {
	cs.ensureCosts(m)
	self := -1
	for i, o := range cs.Entities {
		if o == e {
			self = i
			break
		}
	}
	limit := e.D - e.Jitter
	var base timeq.Time
	if self >= 0 {
		base = timeq.AddSat(cs.infl[self], cs.blocking[self])
	} else {
		// Entity not hosted here (defensive; callers always solve an
		// entity on its own set).
		base = timeq.AddSat(cs.InflatedCost(e, m), cs.Blocking(e, m))
	}
	relCost := cs.relCost
	ep := e.LocalPriority
	// Per-solve struct-of-arrays setup: classify every entity's
	// interference against e once — coef[j] is the inflated budget for
	// higher-priority entities, the release-path cost for
	// lower-priority timer releases, and 0 for everything inert (e
	// itself, equal priorities, migrated lower-priority arrivals) —
	// and refresh the jitter mirror (chain resolution mutates Jitter
	// without invalidating the cost cache, so it cannot live there).
	// The fixed-point loop (fpFixedPoint) then touches only flat
	// slices: a skipped zero coefficient contributes exactly the zero
	// the entity-walk formulation added, so verdicts are bit-identical.
	k := len(cs.Entities)
	if cap(cs.soaJ) < k {
		cs.soaJ = make([]timeq.Time, k)
		cs.soaCoef = make([]timeq.Time, k)
	}
	jit := cs.soaJ[:k]
	coef := cs.soaCoef[:k]
	if cs.prioNarrow {
		ep32 := int32(ep)
		for j, o := range cs.Entities {
			jit[j] = o.Jitter
			p := cs.soaPrio[j]
			switch {
			case j == self:
				coef[j] = 0
			case p < ep32:
				coef[j] = cs.infl[j]
			case relCost > 0 && p > ep32 && !cs.soaMigr[j]:
				coef[j] = relCost
			default:
				coef[j] = 0
			}
		}
	} else {
		for j, o := range cs.Entities {
			jit[j] = o.Jitter
			switch {
			case j == self:
				coef[j] = 0
			case o.LocalPriority < ep:
				coef[j] = cs.infl[j]
			case relCost > 0 && o.LocalPriority > ep && !o.MigrIn:
				coef[j] = relCost
			default:
				coef[j] = 0
			}
		}
	}
	return fpFixedPoint(base, start, limit, coef, jit, cs.soaT[:k])
}

// fpFixedPoint is the one response-time iteration of the package,
//
//	R ← base + Σⱼ coef[j]·⌈(R + jit[j])/periods[j]⌉,
//
// started from max(base, start), where start is at or below the least
// fixed point (0 for a cold start). A zero coefficient is an inert
// entity; the terms are non-negative and saturate, so their order does
// not matter. It returns the fixed point and whether it lies at or
// below limit, or the first total past limit and false, and the
// iterations spent. The verdict is "the least fixed point is at most
// limit" and nothing else: no iteration count decides it.
//
// The loop ends by itself. A step that neither converges nor exits
// raises r to its total, and the next step's total differs from that r
// only if some ⌈(r + Jⱼ)/Tⱼ⌉ rose; at r ≤ limit each is at most
// ⌈(limit + Jⱼ)/Tⱼ⌉. So a solve over k entities takes at most
// Σⱼ⌈(limit + Jⱼ)/Tⱼ⌉ + 2 ≤ limit·Σ1/T + ΣJ/T + k + 2 iterations, and
// a saturated total exits at total > limit.
func fpFixedPoint(base, start, limit timeq.Time, coef, jit, periods []timeq.Time) (timeq.Time, bool, int) {
	if base > limit {
		return base, false, 0
	}
	r := max(base, start)
	for iter := 1; ; iter++ {
		total := base
		for j, c := range coef {
			if c == 0 {
				continue
			}
			n := timeq.CeilDiv(r+jit[j], periods[j])
			total = timeq.AddSat(total, timeq.MulCount(c, n))
		}
		if total == r {
			// r is the start or an earlier total, so a start at or
			// below limit converges at most at limit; the check keeps
			// the verdict to the limit whatever start a caller passes.
			return r, r <= limit, iter
		}
		if total > limit {
			return total, false, iter
		}
		r = total
	}
}

// CoreSchedulable reports whether every entity on the core meets its
// deadline budget under the model.
func (cs *CoreSet) CoreSchedulable(m *overhead.Model) bool {
	for _, e := range cs.Entities {
		if _, ok := cs.ResponseTime(e, m); !ok {
			return false
		}
	}
	return true
}

// LiuLaylandBound returns the classic RM utilization bound
// n(2^{1/n} − 1) for n tasks; 1.0 for n ≤ 1. This is the per-core
// threshold Θ(n) that the SPA algorithms fill each processor to.
func LiuLaylandBound(n int) float64 {
	if n <= 1 {
		return 1.0
	}
	fn := float64(n)
	return fn * (math.Pow(2, 1/fn) - 1)
}
