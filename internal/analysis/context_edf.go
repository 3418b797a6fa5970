package analysis

import (
	"slices"

	"repro/internal/overhead"
	"repro/internal/task"
)

// edfContext is the incremental EDF admission context. Deadline
// windows decouple the cores, so there is no cross-core fixed point:
// each core record keeps its entity list in the canonical build order
// (the processor-demand test accumulates a floating-point utilization
// sum, so the order must match the stateless build exactly); verdicts
// are cached keyed by (content revision, queue bound). A probe dirties
// only the probed core; a split install dirties every core hosting one
// of its parts. EDF entities are immutable once adopted, and nothing a
// test computes is kept for the next: every demand test starts its
// busy period cold, as the stateless one does.
type edfContext struct {
	ctxBase

	// sc is the probe scratch, the one a snapshot prober draws from its
	// pool: nothing in it outlives a probe. The tentative whole-task
	// entity is its reused slot (Commit clones it); split parts are
	// drawn from the context's pool instead of the scratch's, because a
	// Commit adopts them.
	sc edfProbeScratch
}

func newEDFContext(an Analyzer, a *task.Assignment, m *overhead.Model) *edfContext {
	x := &edfContext{ctxBase: newCtxBase(an, a, m)}
	x.adoptAll()
	return x
}

// adoptAll commits whatever the assignment already contains.
func (x *edfContext) adoptAll() {
	for c, ts := range x.a.Normal {
		for _, t := range ts {
			x.adoptNormal(newEDFEntityInto(x.pool.get(), t), c)
		}
	}
	for _, sp := range x.a.Splits {
		x.sc.parts, x.sc.partCores = fillEDFParts(x.sc.parts, x.sc.partCores, sp, &x.pool)
		x.adoptParts(x.sc.parts, x.sc.partCores)
	}
}

func (x *edfContext) Fork() Snapshot { return (*edfSnapshot)(x.fork()) }

// adoptNormal commits a whole-task entity onto core c, before the
// split parts (canonical order).
func (x *edfContext) adoptNormal(e *Entity, c int) {
	r := x.own(c, true)
	r.ents = slices.Insert(r.ents, r.nNormals, e)
	r.nNormals++
	x.adopted(r, e)
}

// adoptParts commits split-part entities, each after everything else
// on its core (canonical order: the split is the newest in a.Splits).
func (x *edfContext) adoptParts(parts []*Entity, cores []int) {
	for i, e := range parts {
		r := x.own(cores[i], true)
		r.ents = append(r.ents, e)
		x.adopted(r, e)
	}
}

// evalCore runs the engine on core c with the tentative entities given,
// counting the test.
func (x *edfContext) evalCore(c int, place *Entity, parts []*Entity, partCores []int, n int) bool {
	ok, points := edfEvalProbe(x.m, &x.cores[c], &x.sc.cs, c, place, parts, partCores, n)
	x.stats.CoreTests++
	x.stats.DemandTests++
	x.stats.DemandPoints += points
	return ok
}

// probe runs the engine on the pending mutation.
func (x *edfContext) probe() {
	p := &x.pend
	var place *Entity
	if p.kind == pendPlace {
		place = &x.sc.ent
	}
	p.fits = x.evalCore(p.core, place, p.addEnts, p.addCores, p.n)
}

func (x *edfContext) TryPlace(t *task.Task, c int) bool {
	x.ensureNoPending("TryPlace")
	x.stats.Probes++
	x.a.Place(t, c)
	newEDFEntityInto(&x.sc.ent, t)
	x.pend = pending{kind: pendPlace, core: c, n: placeN(x.cores, x.maxN, c)}
	x.probe()
	return x.pend.fits
}

func (x *edfContext) TrySplit(sp *task.Split, c int) bool {
	x.ensureNoPending("TrySplit")
	x.stats.Probes++
	x.a.Splits = append(x.a.Splits, sp)
	x.sc.parts, x.sc.partCores = fillEDFParts(x.sc.parts, x.sc.partCores, sp, &x.pool)
	x.pend = pending{kind: pendSplit, core: c, addEnts: x.sc.parts, addCores: x.sc.partCores}
	x.pend.n = probeN(x.cores, x.maxN, x.sc.partCores)
	x.probe()
	return x.pend.fits
}

func (x *edfContext) Commit() {
	p := &x.pend
	hint := pubUnknown
	switch p.kind {
	case pendNone:
		panic("analysis: Commit with no pending probe")
	case pendPlace:
		// The tentative entity is the reused scratch slot: clone it
		// onto a pooled entity.
		e := x.pool.get()
		*e = x.sc.ent
		x.adoptNormal(e, p.core)
		hint = pubAdmitted
	case pendSplit:
		x.adoptParts(p.addEnts, p.addCores)
	}
	x.commitSeq++
	x.verdicts[p.core] = fpVerdict{valid: true, ok: p.fits, rev: x.cores[p.core].rev, n: x.maxN}
	fits := hint == pubAdmitted && p.fits
	x.pend = pending{}
	x.committed(hint, fits)
}

func (x *edfContext) Rollback() {
	p := &x.pend
	switch p.kind {
	case pendNone:
		panic("analysis: Rollback with no pending probe")
	case pendPlace:
		c := p.core
		x.a.Normal[c] = x.a.Normal[c][:len(x.a.Normal[c])-1]
	case pendSplit:
		x.a.Splits = x.a.Splits[:len(x.a.Splits)-1]
		// The tentative part entities were never published: recycle
		// them.
		x.pool.put(p.addEnts...)
	}
	x.pend = pending{}
}

func (x *edfContext) Place(t *task.Task, c int) {
	x.ensureNoPending("Place")
	x.a.Place(t, c)
	x.adoptNormal(newEDFEntityInto(x.pool.get(), t), c)
	x.commitSeq++
	x.committed(pubUnknown, false)
}

func (x *edfContext) AddSplit(sp *task.Split) {
	x.ensureNoPending("AddSplit")
	x.a.Splits = append(x.a.Splits, sp)
	x.sc.parts, x.sc.partCores = fillEDFParts(x.sc.parts, x.sc.partCores, sp, &x.pool)
	x.adoptParts(x.sc.parts, x.sc.partCores)
	x.commitSeq++
	x.committed(pubUnknown, false)
}

// dropEntity deletes the entity of task id from core c's normals or,
// with part set, its split parts.
func (x *edfContext) dropEntity(c int, id task.ID, part bool) {
	r := &x.cores[c]
	lo, hi := 0, r.nNormals
	if part {
		lo, hi = r.nNormals, len(r.ents)
	}
	j := lo + slices.IndexFunc(r.ents[lo:hi], func(e *Entity) bool { return e.Task.ID == id })
	if !r.shared {
		r.ents = slices.Delete(r.ents, j, j+1)
	} else {
		r.ents, r.shared = removeAtCOW(r.ents, j), false
	}
	if !part {
		r.nNormals--
	}
	x.dropped(r)
}

// Remove deletes the task (whole or window-split) from the
// assignment and the per-core state. Deadline windows decouple the
// cores, so invalidation is local to the touched cores, whose
// revisions retire their verdicts — except the shared queue bound N:
// verdicts are keyed by N, so a removal that lowers MaxTasksPerCore
// retires every core's. The canonical entity order (normals in
// placement order, then split parts in split order) is preserved, so
// decisions — including the order-sensitive floating-point
// utilization sum — stay bit-identical to the stateless build.
func (x *edfContext) Remove(id task.ID) bool {
	x.ensureNoPending("Remove")
	found := false
search:
	for c := range x.a.Normal {
		for i, t := range x.a.Normal[c] {
			if t.ID == id {
				x.a.Normal[c] = removeAtCOW(x.a.Normal[c], i)
				x.dropEntity(c, id, false)
				found = true
				break search
			}
		}
	}
	if !found {
		si := slices.IndexFunc(x.a.Splits, func(sp *task.Split) bool { return sp.Task.ID == id })
		if si < 0 {
			return false
		}
		for _, p := range x.a.Splits[si].Parts {
			x.dropEntity(p.Core, id, true)
		}
		x.a.Splits = removeAtCOW(x.a.Splits, si)
	}
	x.removed()
	x.committed(pubRemoved, false)
	return true
}

func (x *edfContext) Schedulable() bool {
	x.ensureNoPending("Schedulable")
	x.stats.FullTests++
	if !edfWindowed(x.a.Splits) {
		return false
	}
	for c := range x.cores {
		ok, hit := x.cachedVerdict(c, 0)
		if !hit {
			ok = x.evalCore(c, nil, nil, nil, x.maxN)
			x.setVerdict(c, 0, ok)
		}
		if !ok {
			return false
		}
	}
	return true
}

// Reset rebinds the context to a new assignment and model, recycling
// every owned slab (see the Context interface contract).
func (x *edfContext) Reset(a *task.Assignment, m *overhead.Model) {
	x.rebind(a, m)
	x.adoptAll()
}
