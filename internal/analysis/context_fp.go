package analysis

import (
	"slices"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// fpContext is the incremental fixed-priority admission context: the
// stateful counterpart of fpAnalyzer.CoreSchedulable, and the writer
// that owns the committed state the probe engine (engine.go) reads.
//
// A probe runs the engine over the context's own views, exactly as a
// snapshot prober does over pooled ones. What makes the context the
// writer is what happens next. Rollback drops the views. Commit inserts
// the tentative entity into the committed record and, after a jitter
// resolution, replaces each chain entity whose jitter it moved by one
// carrying the new jitter. No response time outlives its probe: the
// next one solves from zero or its screen's start (see engine.go).
// Until the context forks nothing else can see the committed state, so
// a commit writes it in place and the packing loops allocate nothing;
// once it has, committed slices and entities are shared with published
// snapshots and a commit is copy-on-write (ctxBase.own, setJitter).
//
// Per-core verdicts are cached keyed by (content revision, queue bound
// N, jitter generation), so a core no mutation dirtied is never
// re-analyzed: a whole-task placement dirties one core, a split every
// core in its chain, and a resolution that moves a chain's jitters
// every core hosting one that moved.
type fpContext struct {
	ctxBase

	sc        fpProbeScratch // the writer's views and probe scratch
	tent      fpSnapChain    // the pending split probe's tentative chain
	chainFree []fpSnapChain  // reclaimed chain records; their slices keep capacity

	jEpoch   int64   // jitter generation counter
	coreJGen []int64 // last generation a chain jitter on core c changed

	resolveSeq int64 // commitSeq the committed jitters are resolved for
	lastFailed bool  // that resolution left an entity it could not fit
}

func newFPContext(an Analyzer, a *task.Assignment, m *overhead.Model) *fpContext {
	x := &fpContext{ctxBase: newCtxBase(an, a, m), coreJGen: make([]int64, a.NumCores), resolveSeq: -1}
	x.sc.size(a.NumCores)
	x.adoptAll()
	return x
}

// adoptAll commits whatever the assignment already contains (contexts
// may be opened over hand-built assignments, not just empty ones).
func (x *fpContext) adoptAll() {
	for c, ts := range x.a.Normal {
		for _, t := range ts {
			x.adopt(newFPEntityInto(x.pool.get(), t), c)
		}
	}
	for _, sp := range x.a.Splits {
		x.newChain(sp)
		x.adoptChain()
	}
}

func (x *fpContext) Fork() Snapshot { return (*fpSnapshot)(x.fork()) }

// engine binds the probe engine to the committed state and the
// writer's scratch and counters.
func (x *fpContext) engine() fpProbe {
	return fpProbe{m: x.m, mono: x.mono, maxN: x.maxN, cores: x.cores, chains: x.chains, sc: &x.sc, stats: &x.stats}
}

// adopt commits e onto core c.
func (x *fpContext) adopt(e *Entity, c int) {
	r := x.own(c, true)
	r.ents = insertByPriority(r.ents, e)
	x.adopted(r, e)
}

// newChain builds the tentative chain of sp from the recycle pools:
// rolled-back split probes return their chain and entities, so the
// packing loops' budget searches stop allocating per probe.
func (x *fpContext) newChain(sp *task.Split) {
	x.tent = fpSnapChain{}
	if n := len(x.chainFree); n > 0 {
		x.tent, x.chainFree = x.chainFree[n-1], x.chainFree[:n-1]
	}
	fillFPChain(&x.tent, sp, &x.pool)
}

// recycleTent returns the tentative chain, never published, to the
// pools.
func (x *fpContext) recycleTent() {
	x.pool.put(x.tent.ents...)
	x.chainFree = append(x.chainFree, fpSnapChain{ents: x.tent.ents[:0], cores: x.tent.cores[:0]})
	x.tent = fpSnapChain{}
}

// adoptChain commits the tentative chain.
func (x *fpContext) adoptChain() {
	for i, e := range x.tent.ents {
		x.adopt(e, x.tent.cores[i])
	}
	x.chains = append(x.chains, x.tent)
	x.tent = fpSnapChain{}
}

func (x *fpContext) TryPlace(t *task.Task, c int) bool {
	x.ensureNoPending("TryPlace")
	x.stats.Probes++
	x.a.Place(t, c)
	// The tentative entity lives in a reused scratch slot; Commit
	// clones it onto the heap before adopting it.
	sc := &x.sc
	sc.addEnts[0], sc.addCores[0] = newFPEntityInto(&sc.ent, t), c
	x.pend = pending{kind: pendPlace, core: c, addEnts: sc.addEnts[:], addCores: sc.addCores[:], n: placeN(x.cores, x.maxN, c)}
	x.probe(nil)
	return x.pend.fits
}

func (x *fpContext) TrySplit(sp *task.Split, c int) bool {
	x.ensureNoPending("TrySplit")
	x.stats.Probes++
	x.a.Splits = append(x.a.Splits, sp)
	x.newChain(sp)
	x.pend = pending{kind: pendSplit, core: c, addEnts: x.tent.ents, addCores: x.tent.cores}
	x.pend.n = probeN(x.cores, x.maxN, x.pend.addCores)
	x.probe(&x.tent)
	return x.pend.fits
}

// probe runs the engine on the pending mutation.
func (x *fpContext) probe(tent *fpSnapChain) {
	p := x.engine()
	x.pend.fits = p.run(x.pend.addEnts, x.pend.addCores, tent, x.pend.core, x.pend.n)
	x.pend.resolved = len(x.chains) > 0 || tent != nil
}

// installJitters makes what the engine's last resolution converged the
// committed state: the chain jitters, the cores they moved on and the
// resolution's outcome for the next full test. The committed chains
// must already hold the run's tentative one.
func (x *fpContext) installJitters() {
	for i, ch := range x.sc.chains {
		for j, ce := range ch.ents {
			if x.chains[i].ents[j].Jitter != ce.Jitter {
				x.setJitter(i, j, ce.Jitter)
			}
		}
	}
	for d := range x.cores {
		if x.sc.views[d].jMoved {
			x.jEpoch++
			x.coreJGen[d] = x.jEpoch
		}
	}
	x.lastFailed = len(x.sc.failed) > 0
}

// setJitter gives committed chain i's entity j the jitter jit.
// Committed entities are immutable once a snapshot may reference them:
// the entity is then replaced, in its host record and in a private
// copy of the chain list, by a copy carrying the new jitter.
func (x *fpContext) setJitter(i, j int, jit timeq.Time) {
	e := x.chains[i].ents[j]
	if x.publishing.Load() {
		ne := x.pool.get()
		*ne = *e
		x.chains = slices.Clone(x.chains)
		ch := &x.chains[i]
		ch.ents = slices.Clone(ch.ents)
		ch.ents[j] = ne
		r := x.own(ch.cores[j], false)
		r.ents[slices.Index(r.ents, e)] = ne
		e = ne
	}
	e.Jitter = jit
}

func (x *fpContext) Commit() {
	p := &x.pend
	hint := pubUnknown
	switch p.kind {
	case pendNone:
		panic("analysis: Commit with no pending probe")
	case pendPlace:
		e := x.pool.get()
		*e = *p.addEnts[0]
		x.adopt(e, p.core)
		hint = pubAdmitted
	case pendSplit:
		x.adoptChain()
	}
	x.commitSeq++
	if p.resolved {
		x.installJitters()
		x.resolveSeq = x.commitSeq
	}
	x.verdicts[p.core] = fpVerdict{valid: true, ok: p.fits, rev: x.cores[p.core].rev, n: x.maxN, jGen: x.coreJGen[p.core]}
	fits := hint == pubAdmitted && p.fits
	x.pend = pending{}
	x.committed(hint, fits)
}

func (x *fpContext) Rollback() {
	switch x.pend.kind {
	case pendNone:
		panic("analysis: Rollback with no pending probe")
	case pendPlace:
		c := x.pend.core
		x.a.Normal[c] = x.a.Normal[c][:len(x.a.Normal[c])-1]
	case pendSplit:
		x.a.Splits = x.a.Splits[:len(x.a.Splits)-1]
		x.recycleTent()
	}
	x.pend = pending{}
}

func (x *fpContext) Place(t *task.Task, c int) {
	x.ensureNoPending("Place")
	x.a.Place(t, c)
	x.adopt(newFPEntityInto(x.pool.get(), t), c)
	x.commitSeq++
	x.committed(pubUnknown, false)
}

func (x *fpContext) AddSplit(sp *task.Split) {
	x.ensureNoPending("AddSplit")
	x.a.Splits = append(x.a.Splits, sp)
	x.newChain(sp)
	x.adoptChain()
	x.commitSeq++
	x.committed(pubUnknown, false)
}

// dropEntity deletes core c's entity i: in place on a record no
// snapshot references, otherwise into private copies without it.
func (x *fpContext) dropEntity(c, i int) {
	r := &x.cores[c]
	if !r.shared {
		r.ents = slices.Delete(r.ents, i, i+1)
	} else {
		r.ents, r.shared = removeAtCOW(r.ents, i), false
		r.tab = nil // rebuilt for the new revision
	}
	x.dropped(r)
}

// Remove deletes the task (whole placement or split chain). Removal is
// the one mutation under which the committed chain jitters, the start
// of the next resolution, can overshoot its least fixed point: less
// interference or a smaller queue bound N shrinks response times. So
// when chains exist or N dropped (the shared N couples every core),
// every jitter goes back to zero and every core's verdict is dropped;
// otherwise the removal is local to one core, whose revision retires
// its verdict. Entity order within each core is preserved, so
// decisions stay bit-identical to the stateless build of the shrunken
// assignment.
func (x *fpContext) Remove(id task.ID) bool {
	x.ensureNoPending("Remove")
	affected := -1
search:
	for c := range x.a.Normal {
		for i, t := range x.a.Normal[c] {
			if t.ID == id {
				x.a.Normal[c] = removeAtCOW(x.a.Normal[c], i)
				x.dropEntity(c, slices.IndexFunc(x.cores[c].ents, func(e *Entity) bool {
					return e.Task.ID == id && !e.MigrIn && !e.MigrOut
				}))
				affected = c
				break search
			}
		}
	}
	if affected < 0 {
		si := slices.IndexFunc(x.a.Splits, func(sp *task.Split) bool { return sp.Task.ID == id })
		if si < 0 {
			return false
		}
		ci := slices.IndexFunc(x.chains, func(ch fpSnapChain) bool { return ch.sp == x.a.Splits[si] })
		for i, e := range x.chains[ci].ents {
			c := x.chains[ci].cores[i]
			x.dropEntity(c, slices.Index(x.cores[c].ents, e))
		}
		x.a.Splits = removeAtCOW(x.a.Splits, si)
		x.chains = removeAtCOW(x.chains, ci)
	}
	if x.removed() || affected < 0 || len(x.chains) > 0 {
		// Chain jitters and the shared queue bound couple the cores:
		// drop every verdict and force a fresh resolution.
		clear(x.verdicts)
		for i, ch := range x.chains {
			for j, e := range ch.ents {
				if e.Jitter != 0 {
					x.setJitter(i, j, 0)
				}
			}
		}
		x.resolveSeq = -1
		x.lastFailed = false
	}
	x.committed(pubRemoved, false)
	return true
}

// removeAtCOW splices element i out into a fresh slice, leaving the
// input untouched: the assignment's task and split lists and the chain
// list are shared with published snapshots, so removal from them never
// shifts in place.
func removeAtCOW[T any](xs []T, i int) []T {
	out := make([]T, 0, len(xs)-1)
	out = append(out, xs[:i]...)
	return append(out, xs[i+1:]...)
}

func (x *fpContext) Schedulable() bool {
	x.ensureNoPending("Schedulable")
	x.stats.FullTests++
	if len(x.chains) > 0 && x.resolveSeq != x.commitSeq {
		p := x.engine()
		x.sc.run++
		p.buildViews(nil, nil, -1, x.maxN)
		p.cloneChains(nil)
		p.resolve()
		x.installJitters()
		x.resolveSeq = x.commitSeq
	}
	if x.lastFailed {
		return false
	}
	p := x.engine()
	for c := range x.cores {
		ok, hit := x.cachedVerdict(c, x.coreJGen[c])
		if !hit {
			x.sc.run++
			v := &x.sc.views[c]
			p.fillView(v, c, nil, nil, x.maxN)
			ok = fpEvalCore(&p, v, nil)
			x.setVerdict(c, x.coreJGen[c], ok)
		}
		if !ok {
			return false
		}
	}
	return true
}

// Reset rebinds the context to a new assignment and model, recycling
// every owned slab (see the Context interface contract).
func (x *fpContext) Reset(a *task.Assignment, m *overhead.Model) {
	old := x.chains
	if x.rebind(a, m) {
		x.coreJGen = make([]int64, a.NumCores)
		x.chainFree = nil
		x.sc.size(a.NumCores)
	} else {
		clear(x.coreJGen)
		// Chain entities were reclaimed with their host records;
		// recycle the chain records alone.
		for _, ch := range old {
			x.chainFree = append(x.chainFree, fpSnapChain{ents: ch.ents[:0], cores: ch.cores[:0]})
		}
	}
	x.resolveSeq = -1
	x.lastFailed = false
	x.adoptAll()
}
