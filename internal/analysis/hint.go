// Split-budget hints.
//
// The split-task partitioners size every non-final part as the largest
// budget its core admits. SplitHint computes that budget instead of
// searching for it: it builds the probe state of the tentative split
// once, resolves the chain jitters, and reads the budget off the core's
// constraints with everything but the part's budget held.
//
// Under fixed priorities the part's budget b enters the analysis
// linearly (CoreSet.ensureCosts: C' = C + arrival + departure +
// CacheMax). An entity meets its limit D − J iff its demand W(t) ≤ t at
// some t ≤ D − J, and W is a step function constant between the points
// k·Tᵢ − Jᵢ of the entities interfering with it, so the largest budget
// entity j admits is
//
//	max_{t ∈ Sⱼ} (t − Wⱼ⁻ᵖ(t)) / ⌈(t + Jₚ)/Tₚ⌉ − charges
//
// where Wⱼ⁻ᵖ is j's demand without the part's term and Sⱼ holds j's
// points and its limit: the sensitivity analysis of Bini, Di Natale &
// Buttazzo ("Sensitivity analysis for fixed-priority real-time
// systems", Real-Time Systems 39, 2008). The hint is its minimum over
// the part itself and every entity below it; entities above the part
// never see its budget (blocking counts releases, not budgets). With
// the jitters and N held the hint is exact, so on a core whose jitters
// do not depend on the part's budget it is the answer. Every core an
// SPA fill splits onto is one: its chains only run forward, and the
// part's remainder lands on a core no chain on this one starts from.
// Elsewhere the remainder can move a jitter here, and the hint is a
// starting point.
//
// Under EDF the part (window Dₚ, period Tₚ) adds dbfₚ(t)·(b + charges)
// to the demand at every deadline t, so a deadline t admits at most
// (t − h⁻ᵖ(t)) / dbfₚ(t) − charges. The hint starts from what the
// C' ≤ D and utilization screens leave, runs the engine's demand test
// there, and lowers the budget to what the deadline the walk missed
// admits until the test passes. Each round costs about one probe, and
// a hint the test passed at is a budget that fits.
//
// No verdict comes from a hint: the budget search (package partition)
// confirms it with a passing probe at the hint and a failing one a grid
// step above, and bisects the half-range the failed confirm proved.
package analysis

import (
	"slices"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// hintRounds bounds the demand tests an EDF hint runs, and hintPoints
// the deadlines it reads before the first; past them the probes decide.
const (
	hintRounds = 8
	hintPoints = 4096
)

// SplitHint computes the budget hint of the part sp places on core c
// (see the Context interface): the tentative chain built and resolved
// as TrySplit would, then the core's constraints read with the jitters
// held.
func (x *fpContext) SplitHint(sp *task.Split, c int) timeq.Time {
	x.ensureNoPending("SplitHint")
	x.newChain(sp)
	tent := &x.tent
	part := tent.ents[slices.Index(tent.cores, c)]
	p := x.engine()
	p.sc.run++
	p.sc.size(len(p.cores))
	p.buildViews(tent.ents, tent.cores, c, probeN(x.cores, x.maxN, tent.cores))
	p.cloneChains(tent)
	p.resolve()
	h := p.sc.views[c].cs.fpBudgetHint(x.m, part)
	x.recycleTent()
	return h
}

// fpBudgetHint returns the largest budget the set's entity part could
// have with every other parameter held and every entity at or below its
// priority meeting its limit, 0 when not even a zero budget would.
func (cs *CoreSet) fpBudgetHint(m *overhead.Model, part *Entity) timeq.Time {
	cs.ensureCosts(m)
	k := len(cs.Entities)
	if cap(cs.soaJ) < k {
		cs.soaJ = make([]timeq.Time, k)
		cs.soaCoef = make([]timeq.Time, k)
	}
	for i, e := range cs.Entities {
		cs.soaJ[i] = e.Jitter
	}
	pi := slices.Index(cs.Entities, part)
	charges := cs.infl[pi] - part.C
	hint := timeq.Infinity
	for j, e := range cs.Entities {
		if j == pi || e.LocalPriority > part.LocalPriority {
			hint = min(hint, cs.entityBudget(j, pi, charges, hint))
		}
	}
	return max(hint, 0)
}

// entityBudget returns the largest budget of entity pi under which
// entity j still meets its limit, negative when none does. It stops
// looking once it has found bound: the caller wants the minimum over
// entities. The caller filled soaJ.
func (cs *CoreSet) entityBudget(j, pi int, charges, bound timeq.Time) timeq.Time {
	k := len(cs.Entities)
	ej := cs.Entities[j]
	periods, jit, coef := cs.soaT[:k], cs.soaJ[:k], cs.soaCoef[:k]
	for i, o := range cs.Entities {
		switch {
		case i == j || i == pi:
			coef[i] = 0 // the part's term is the unknown
		case o.LocalPriority < ej.LocalPriority:
			coef[i] = cs.infl[i]
		case cs.relCost > 0 && o.LocalPriority > ej.LocalPriority && !o.MigrIn:
			coef[i] = cs.relCost
		default:
			coef[i] = 0
		}
	}
	// base is j's demand that steps with nothing: its own budget and
	// blocking, less the part's budget when j is the part.
	base := timeq.AddSat(cs.infl[j], cs.blocking[j])
	if j == pi {
		base = timeq.AddSat(charges, cs.blocking[j])
	}
	limit := ej.D - ej.Jitter
	best := timeq.Time(-1)
	at := func(t timeq.Time) {
		w := base
		for i, c := range coef {
			if c != 0 {
				w = timeq.AddSat(w, timeq.MulCount(c, timeq.CeilDiv(t+jit[i], periods[i])))
			}
		}
		if w > t {
			return
		}
		b := t - w
		if j != pi {
			b = b/timeq.Time(timeq.CeilDiv(t+jit[pi], periods[pi])) - charges
		}
		best = max(best, b)
	}
	at(limit)
	for i := range coef {
		if coef[i] == 0 && (i != pi || j == pi) {
			continue
		}
		for t := periods[i] - jit[i]; t < limit && best < bound; t += periods[i] {
			if t > 0 {
				at(t)
			}
		}
	}
	return best
}

// SplitHint computes the budget hint of the part sp places on core c
// (see the Context interface) over the probe set TrySplit would test.
func (x *edfContext) SplitHint(sp *task.Split, c int) timeq.Time {
	x.ensureNoPending("SplitHint")
	sc := &x.sc
	sc.parts, sc.partCores = fillEDFParts(sc.parts, sc.partCores, sp, &x.pool)
	part := sc.parts[slices.Index(sc.partCores, c)]
	edfProbeSet(x.m, &x.cores[c], &sc.cs, c, nil, sc.parts, sc.partCores, probeN(x.cores, x.maxN, sc.partCores))
	h := sc.cs.edfBudgetHint(x.m, part)
	x.pool.put(sc.parts...)
	return h
}

// edfBudgetHint returns the largest budget the set's entity part could
// have with the demand test still passing, 0 when not even a zero
// budget would or when it has no estimate. It starts from what the
// C' ≤ D screen and the deadlines up to the largest relative deadline
// admit (every horizon reaches that far) and runs the test there. Where
// the walk misses a deadline, the budget drops to what that deadline
// admits and the test runs again, at most hintRounds times. A budget
// the test passes at is returned as is. It leaves part's budget at the
// last budget tested.
func (cs *CoreSet) edfBudgetHint(m *overhead.Model, part *Entity) timeq.Time {
	cs.ensureCosts(m)
	k := len(cs.Entities)
	pi := slices.Index(cs.Entities, part)
	charges := cs.infl[pi] - part.C
	rel := cs.relCost
	periods, deadlines, migr := cs.soaT[:k], cs.soaD[:k], cs.soaMigr[:k]
	hint := min(part.C, part.D-charges)
	u := 0.0
	for i := 0; i < k; i++ {
		if i != pi {
			if deadlines[i] < cs.infl[i] {
				return 0
			}
			u += float64(cs.infl[i]) / float64(periods[i])
		}
		if !migr[i] && rel > 0 {
			u += float64(rel) / float64(periods[i])
		}
	}
	ub := timeq.Time((1-u)*float64(part.T)) - charges
	// admits is the largest budget deadline t leaves the part, -1 when
	// t misses whatever the budget. The caller ran ensureCosts.
	b := cs.edfMaxBlocking(m)
	admits := func(t timeq.Time) timeq.Time {
		h := b
		for q := 0; q < k; q++ {
			if d := deadlines[q]; q != pi && d <= t {
				h = timeq.AddSat(h, timeq.MulCount(cs.infl[q], int64(t-d)/int64(periods[q])+1))
			}
			if rel > 0 && !migr[q] {
				h = timeq.AddSat(h, timeq.MulCount(rel, timeq.CeilDiv(t, periods[q])))
			}
		}
		if h > t {
			return -1
		}
		if t < deadlines[pi] {
			return timeq.Infinity
		}
		return (t-h)/timeq.Time(int64(t-deadlines[pi])/int64(periods[pi])+1) - charges
	}
	early := slices.Max(deadlines)
	raw := 0
	for i := 0; i < k; i++ {
		raw += int((early-deadlines[i])/periods[i]) + 1
	}
	if raw <= hintPoints {
		for i := 0; i < k && hint > 0; i++ {
			for t := deadlines[i]; t <= early && hint > 0; t += periods[i] {
				hint = min(hint, admits(t))
			}
		}
	}
	if ub <= hint {
		// Only the utilization screen bounds the part: at inflated
		// utilization 1 the busy period runs into its iteration cap, so
		// a test there costs thousands of iterations and fails. The
		// probes decide, from the bottom of the grid.
		return 0
	}
	for round := 0; round < hintRounds && hint > 0; round++ {
		part.C = hint
		cs.invalidateCosts()
		l, bl, ok := cs.edfHorizon(m)
		if !ok {
			return hint
		}
		ok, _, t := cs.edfDemandWalk(l, bl)
		if ok || t < 0 {
			return hint
		}
		hint = min(hint, admits(t))
	}
	return max(hint, 0)
}
