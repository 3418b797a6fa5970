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
// sum, so the order must match the stateless build exactly) and a memo
// of the demand-bound test points already enumerated with a warm
// busy-period start; verdicts are cached keyed by (content revision,
// queue bound). A probe dirties only the probed core; a split install
// dirties every core hosting one of its parts. EDF entities are
// immutable once adopted and memos once published, so what a commit
// installs is the probe's memo pointer.
type edfContext struct {
	ctxBase

	// sets are the per-core probe sets the engine assembles in; their
	// cost and deadline-point buffers persist per core.
	sets []CoreSet

	// Probe scratch: the tentative whole-task entity lives in a reused
	// slot (Commit clones it), split probes draw pooled entities into
	// reusable slices.
	ent       Entity
	addEnts   [1]*Entity
	addCores  [1]int
	parts     []*Entity
	partCores []int
}

func newEDFContext(an Analyzer, a *task.Assignment, m *overhead.Model) *edfContext {
	x := &edfContext{ctxBase: newCtxBase(an, a, m), sets: make([]CoreSet, a.NumCores)}
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
		x.parts, x.partCores = fillEDFParts(x.parts, x.partCores, sp, &x.pool)
		x.adoptParts(x.parts, x.partCores)
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

// probe runs the engine on the pending mutation, keeping the demand
// memo it converged for Commit to install.
func (x *edfContext) probe() {
	p := &x.pend
	var place *Entity
	if p.kind == pendPlace {
		place = p.addEnts[0]
	}
	x.stats.CoreTests++
	p.fits, p.memo = edfEvalProbe(x.m, x.mono, &x.cores[p.core], &x.sets[p.core], p.core, place, p.addEnts, p.addCores, p.n, x.mono)
}

func (x *edfContext) TryPlace(t *task.Task, c int) bool {
	x.ensureNoPending("TryPlace")
	x.stats.Probes++
	x.a.Place(t, c)
	x.addEnts[0], x.addCores[0] = newEDFEntityInto(&x.ent, t), c
	x.pend = pending{kind: pendPlace, core: c, addEnts: x.addEnts[:], addCores: x.addCores[:]}
	x.pend.n = probeN(x.cores, x.maxN, x.pend.addCores)
	// The per-core demand verdict is a pure function of (core state,
	// probed shape, queue bound): the shared sweep memo can answer
	// before any demand-bound enumeration runs.
	node, shape, hit := x.sweepShared(&x.ent)
	if !hit {
		x.probe()
		if node != nil {
			x.sweep.store(node, x.pend.n, shape, x.pend.fits)
		}
	}
	return x.pend.fits
}

func (x *edfContext) TrySplit(sp *task.Split, c int) bool {
	x.ensureNoPending("TrySplit")
	x.stats.Probes++
	x.a.Splits = append(x.a.Splits, sp)
	x.parts, x.partCores = fillEDFParts(x.parts, x.partCores, sp, &x.pool)
	x.pend = pending{kind: pendSplit, core: c, addEnts: x.parts, addCores: x.partCores}
	x.pend.n = probeN(x.cores, x.maxN, x.partCores)
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
		// onto a pooled entity, and move the probe memo's covered
		// identity along with it (the memo was built by this probe and
		// never published, so the in-place swap is safe).
		e := x.pool.get()
		*e = *p.addEnts[0]
		if p.memo != nil {
			delete(p.memo.covered, p.addEnts[0])
			p.memo.covered[e] = true
		}
		x.adoptNormal(e, p.core)
		hint = pubAdmitted
	case pendSplit:
		x.adoptParts(p.addEnts, p.addCores)
	}
	x.commitSeq++
	r := &x.cores[p.core]
	x.verdicts[p.core] = fpVerdict{valid: true, ok: p.fits, rev: r.rev, n: x.maxN}
	if p.memo != nil {
		// The probe's entity set is now the committed one.
		r.memo = p.memo
	}
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
		x.lastProbe[c] = probeRecord{seq: x.commitSeq, id: p.addEnts[0].Task.ID, ok: p.fits, memo: p.memo}
	case pendSplit:
		x.a.Splits = x.a.Splits[:len(x.a.Splits)-1]
		// The tentative part entities were never published: recycle
		// them (the discarded probe memo is the only other referent).
		x.pool.put(p.addEnts...)
	}
	x.pend = pending{}
	x.rolledBack()
}

func (x *edfContext) Place(t *task.Task, c int) {
	x.ensureNoPending("Place")
	x.a.Place(t, c)
	e := newEDFEntityInto(x.pool.get(), t)
	rec := x.lastProbe[c]
	promote := x.mono && rec.ok && rec.seq == x.commitSeq && rec.id == t.ID
	x.adoptNormal(e, c)
	x.commitSeq++
	hint := pubUnknown
	if promote {
		r := &x.cores[c]
		x.verdicts[c] = fpVerdict{valid: true, ok: true, rev: r.rev, n: x.maxN}
		if rec.memo != nil {
			// The memo covered the probe's tentative entity (the
			// scratch slot); the adopted entity has identical (D, T),
			// so its enumerated points and raw count carry over — only
			// the identity in the covered set must be swapped. rec.memo
			// was built by the probe and never published, so the swap
			// may mutate it in place.
			delete(rec.memo.covered, &x.ent)
			rec.memo.covered[e] = true
			r.memo = rec.memo
		}
		hint = pubAdmitted
	}
	x.committed(hint, promote)
}

func (x *edfContext) AddSplit(sp *task.Split) {
	x.ensureNoPending("AddSplit")
	x.a.Splits = append(x.a.Splits, sp)
	x.parts, x.partCores = fillEDFParts(x.parts, x.partCores, sp, &x.pool)
	x.adoptParts(x.parts, x.partCores)
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
	if r.probes == nil {
		r.ents = slices.Delete(r.ents, j, j+1)
	} else {
		r.ents, r.probes = removeAtCOW(r.ents, j), nil
	}
	if !part {
		r.nNormals--
	}
	x.dropped(r)
}

// Remove deletes the task (whole or window-split) from the
// assignment and the per-core state. Deadline windows decouple the
// cores, so invalidation is local to the touched cores — except the
// shared queue bound N: when the removal lowers MaxTasksPerCore,
// every core's inflated costs shrink, so all memos (whose warm busy
// periods could overshoot) are dropped; verdicts are keyed by N and
// invalidate themselves. The canonical entity order (normals in
// placement order, then split parts in split order) is preserved, so
// decisions — including the order-sensitive floating-point
// utilization sum — stay bit-identical to the stateless build.
func (x *edfContext) Remove(id task.ID) bool {
	x.ensureNoPending("Remove")
	x.sweepDisable()
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
	if x.removed() {
		for c := range x.cores {
			x.cores[c].memo = nil
		}
	}
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
		node, ok, hit := x.cachedVerdict(c, 0)
		if !hit {
			x.stats.CoreTests++
			var memo *edfDemandMemo
			ok, memo = edfEvalProbe(x.m, x.mono, &x.cores[c], &x.sets[c], c, nil, nil, nil, x.maxN, x.mono)
			if memo != nil {
				x.cores[c].memo = memo
			}
			x.setVerdict(c, 0, node, ok)
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
	if x.rebind(a, m) {
		x.sets = make([]CoreSet, a.NumCores)
		x.parts, x.partCores = nil, nil
	}
	x.adoptAll()
}
