// The incremental probe engine.
//
// There are two admission engines in this package. The stateless one
// (rta.go, assign.go, edf.go) rebuilds every core per call and is the
// oracle. This file is the other: the one incremental evaluator that
// both owners of committed state probe through — the writer Context
// (context_fp.go, context_edf.go) and the published Snapshot
// (snapshot.go).
//
// Committed state has one shape whoever holds it: a coreRec per core
// and, under fixed priorities, the split chains as fpSnapChain with the
// committed jitters baked into their entities. Committed entities are
// immutable.
//
// A whole-task probe of a state without split chains reads its core's
// table (coreRec.tab, fpRow): per entity C, T, D, the priority, C/T and
// 1/T, and the sums over the entities above and below it, none of
// which depends on the probe. The probe derives its charges — the inflation every
// entity of a plain core shares, the blocking per lower entity, the
// release cost — and screens and, where need be, solves each entity
// from its row plus the new task's one term (fpProbe.tableProbe). The
// table is rebuilt when the record's revision moves: in place on a
// record no snapshot references, and by publish before the records are
// shared, so readers only read it; a shared one is copied with the
// entity slice (ctxBase.own).
//
// Every other evaluation works in a probeView, a scratch copy of one
// core's record with the tentative entities merged in: the entity
// slice and a CoreSet whose cost buffers persist across probes. A chain
// entity whose jitter the probe may move is swapped in the view for a
// probe-local clone. A reader throws its views away; the writer keeps
// the chain jitters a resolution moved on Commit (see context_fp.go).
//
// Nothing a probe converges is kept as a start for the next one: every
// fixed point is solved from zero, or from the lower bound its screen
// proves (rtaScreen), and every EDF busy period from its cold start. A
// least fixed point does not depend on where the iteration starts, so
// the writer, a snapshot and the stateless oracle run the same
// iterations from the same start.
package analysis

import (
	"slices"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// coreRec is one core's committed state, held by the writer and copied
// by value into every published snapshot. The slices are shared
// between the two, so they are written in place only while no snapshot
// can reference them (see ctxBase.own).
type coreRec struct {
	// ents is priority-sorted under fixed priorities; under EDF it is
	// the canonical stateless build order, ents[:nNormals] whole tasks
	// and split parts after them.
	ents     []*Entity
	nNormals int
	cacheMax timeq.Time
	rev      int64 // content revision
	// tab is the fixed-priority table of ents, parallel to it, as of
	// revision tabRev (ensureTable).
	tab    []fpRow
	tabRev int64
	// shared marks a record whose slices a published snapshot
	// references: the writer copies them before writing (ctxBase.own).
	shared bool
}

// fpRow is one committed entity's line in its core's table: its
// parameters, C/T and 1/T, and the sums over the entities strictly
// above it in priority (hp) and strictly below it (lo). Nothing in it
// depends on the queue bound, the cache delay or the model: a probe
// derives its charges and adds them (see fpProbe.tableProbe).
type fpRow struct {
	c, t, d  timeq.Time
	prio     int
	ct, invT float64
	hp, lo   tabSums
}

// tabSums sums a run of committed entities: ΣC, ΣC/T, Σ1/T and their
// count.
type tabSums struct {
	c, ct, invT float64
	n           int
}

func (s *tabSums) add(r *fpRow) {
	s.c += float64(r.c)
	s.ct += r.ct
	s.invT += r.invT
	s.n++
}

// ensureTable rebuilds r.tab from r.ents unless it is current. The
// caller owns the slice: the writer's record after own, or a record
// publish is about to share.
func (r *coreRec) ensureTable() {
	if r.tabRev == r.rev {
		return
	}
	tab := r.tab[:0]
	if cap(tab) < len(r.ents) {
		tab = make([]fpRow, 0, len(r.ents)+4)
	}
	var run, hp tabSums
	for i, e := range r.ents {
		if i == 0 || e.LocalPriority != r.ents[i-1].LocalPriority {
			hp = run
		}
		tab = append(tab, fpRow{c: e.C, t: e.T, d: e.D, prio: e.LocalPriority,
			ct: float64(e.C) / float64(e.T), invT: 1 / float64(e.T), hp: hp})
		run.add(&tab[i])
	}
	run = tabSums{}
	var lo tabSums
	for i := len(tab) - 1; i >= 0; i-- {
		if i == len(tab)-1 || tab[i].prio != tab[i+1].prio {
			lo = run
		}
		tab[i].lo = lo
		run.add(&tab[i])
	}
	r.tab, r.tabRev = tab, r.rev
}

// fpSnapChain is one split chain: its entities in part order, with
// their host cores.
type fpSnapChain struct {
	sp    *task.Split
	ents  []*Entity
	cores []int
}

// entPool recycles entities no published snapshot can reference.
type entPool struct{ free []*Entity }

// get returns an entity whose every field the caller overwrites.
func (p *entPool) get() *Entity {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		return e
	}
	return new(Entity)
}

func (p *entPool) put(ents ...*Entity) { p.free = append(p.free, ents...) }

// probeN returns the queue bound of a probe state: the committed
// bound, raised by any core the tentative entities grow past it.
func probeN(cores []coreRec, maxN int, addCores []int) int {
	n := maxN
	for c := range cores {
		grow := 0
		for _, d := range addCores {
			if d == c {
				grow++
			}
		}
		if k := len(cores[c].ents) + grow; k > n {
			n = k
		}
	}
	return n
}

// placeN is probeN for one whole task placed on core c: no other core
// grows, and none holds more than maxN.
func placeN(cores []coreRec, maxN, c int) int {
	return max(maxN, len(cores[c].ents)+1)
}

// newFPEntityInto fills e with the whole-task entity of BuildCores.
func newFPEntityInto(e *Entity, t *task.Task) *Entity {
	*e = Entity{
		Task:          t,
		C:             t.WCET,
		T:             t.Period,
		D:             t.EffectiveDeadline(),
		LocalPriority: t.Priority,
	}
	return e
}

// newEDFEntityInto fills e with the whole-task entity of edfEntities.
func newEDFEntityInto(e *Entity, t *task.Task) *Entity {
	*e = Entity{Task: t, C: t.WCET, T: t.Period, D: t.EffectiveDeadline()}
	return e
}

// fillFPChain mirrors the split-chain entities of BuildCores into ch,
// reusing its slices and drawing the entities from pool.
func fillFPChain(ch *fpSnapChain, sp *task.Split, pool *entPool) {
	ch.sp = sp
	ch.ents = ch.ents[:0]
	ch.cores = ch.cores[:0]
	last := len(sp.Parts) - 1
	for i, p := range sp.Parts {
		e := pool.get()
		*e = Entity{
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
		ch.ents = append(ch.ents, e)
		ch.cores = append(ch.cores, p.Core)
	}
}

// fillEDFParts mirrors the split-part entities of edfEntities into the
// given slices (reused from length zero), drawing them from pool.
func fillEDFParts(ents []*Entity, cores []int, sp *task.Split, pool *entPool) ([]*Entity, []int) {
	ents, cores = ents[:0], cores[:0]
	last := len(sp.Parts) - 1
	for i, p := range sp.Parts {
		d := sp.Task.EffectiveDeadline()
		if sp.HasWindows() {
			d = sp.Windows[i]
		}
		e := pool.get()
		*e = Entity{
			Task:           sp.Task,
			C:              p.Budget,
			T:              sp.Task.Period,
			D:              d,
			PartIndex:      i,
			MigrIn:         i > 0,
			MigrOut:        i < last,
			RemoteSleepAdd: i == last,
		}
		ents = append(ents, e)
		cores = append(cores, p.Core)
	}
	return ents, cores
}

// probeView is one core's probe state. run stamps the engine run that
// last filled it; jMoved says that run's resolution moved the jitter
// of a chain entity hosted here. src and rev name the committed
// contents the view was last filled from with nothing tentative merged
// in — the record's first entity slot and revision — or src is nil.
type probeView struct {
	cs     CoreSet
	run    int64
	jMoved bool
	src    **Entity
	rev    int64
}

// fpProbeScratch is everything a fixed-priority probe writes: the
// tentative whole-task entity and its one-element placement slices,
// the per-core views, the chain clones and the failure map of the
// resolution. A reader draws one from a
// pool per Prober; the writer owns one for life. Steady-state probes
// allocate nothing.
type fpProbeScratch struct {
	ent      Entity
	addEnts  [1]*Entity
	addCores [1]int

	run   int64 // bumped per evaluation; views filled by it carry the value
	views []probeView

	chains    []fpSnapChain // probe-local clones of the committed chains, then the tentative chain
	cloneSlab []Entity
	clonePtrs []*Entity
	failed    map[*Entity]bool // chain entities the resolution could not fit

	tent fpSnapChain // the reader's tentative split chain
	pool entPool     // the entities it is built from

	mm modelMemo // the queue costs and cache delays the views are filled with
	hp []rtaSums // per entity of the view under test, its higher-priority sums

	// A table probe's solve: the coefficients and periods of the solved
	// entity's interferers, and as many zero jitters.
	coef, per, jit []timeq.Time
}

// size makes room for nc cores, allocating the missing views at once.
func (sc *fpProbeScratch) size(nc int) {
	if n := nc - len(sc.views); n > 0 {
		sc.views = append(sc.views, make([]probeView, n)...)
	}
}

// fpProbe is one evaluation by the fixed-priority engine over a
// committed state (the writer's, or a snapshot's — the engine cannot
// tell), writing only the scratch and the stats.
type fpProbe struct {
	m      *overhead.Model
	mono   bool
	maxN   int
	cores  []coreRec
	chains []fpSnapChain
	sc     *fpProbeScratch
	stats  *AdmissionStats
	// addCM is the cache delay of the tentative task, which every
	// tentative entity of a run shares: computed once per run, before
	// the views are filled (fillView reads it).
	addCM timeq.Time
}

// run evaluates one probe: the tentative entities add placed on
// addCores (and, for a split, their chain tent), queue bound n, verdict
// for probeCore. It mirrors the stateless CoreSchedulable on the probe
// state.
func (p *fpProbe) run(add []*Entity, addCores []int, tent *fpSnapChain, probeCore, n int) bool {
	sc := p.sc
	sc.run++
	if len(p.chains) == 0 && tent == nil {
		// No chains, no cross-core coupling: the probe is one whole task
		// on its own core, answered from the core's table. It needs no
		// views.
		return p.tableProbe(probeCore, add[0], n)
	}
	sc.size(len(p.cores))
	p.buildViews(add, addCores, probeCore, n)
	p.cloneChains(tent)
	p.resolve()
	return fpEvalCore(p, &sc.views[probeCore], sc.failed)
}

// tableProbe is the chain-free probe of whole task e onto core c at
// queue bound n, answered from the core's table instead of a view. On a
// core without split parts every entity is plain, so ensureCosts would
// charge each the same a = plain(n) + CacheMax′ (CacheMax′ the core's,
// raised by e's), a blocking term that counts only the strictly lower
// entities, and the same release cost rel to lower-priority releases.
// The probe state is the committed core with e inserted after its equal
// priorities (insertByPriority), so each entity's screen sums are its
// table sums plus e's one term: C′ₑ for an entity below e, rel for one
// above it, none for an equal priority. Every entity then meets
// rtaScreen and, where it decides nothing, one solve from the screen's
// start — e first, the commonest refusal, then the rest from the bottom
// up (see fpEvalCore for why the order cannot change the verdict). e's
// own sums take one pass over the table (see tableSlot.long).
func (p *fpProbe) tableProbe(c int, e *Entity, n int) bool {
	p.stats.CoreTests++
	var t tableState
	var x tableSlot
	p.tableRun(&t, c, e, n)
	t.slot(-1, &x)
	if !p.tableDecide(&t, &x) {
		return false
	}
	for i := len(t.r.tab) - 1; i >= 0; i-- {
		t.slot(i, &x)
		if !p.tableDecide(&t, &x) {
			return false
		}
	}
	return true
}

// tableState is one table probe: the record r with e placed at pos,
// after the entities above it (those before eq) and its equal
// priorities; and the charges.
type tableState struct {
	r        *coreRec
	e        *Entity
	eq, pos  int
	a, rel   timeq.Time // C′ − C of every entity, and what a lower-priority release costs
	zero     bool       // the zero model: no blocking
	blockRel timeq.Time // the blocking term's charge per lower-priority entity,
	sched    timeq.Time // plus sch when there is any,
	plain    timeq.Time // plus a plain entity's arrival and departure
}

// tableRun fills t for a probe of e onto core c at queue bound n: the
// charges from the scratch's memo and e's place.
func (p *fpProbe) tableRun(t *tableState, c int, e *Entity, n int) {
	sc, m, r := p.sc, p.m, &p.cores[c]
	r.ensureTable() // a snapshot's is current: publish built it
	qc := sc.mm.queueCosts(m, n)
	t.r, t.e = r, e
	t.a = qc.plain + max(r.cacheMax, sc.mm.maxDelay(m, e.Task.WSS))
	t.blockRel = m.Release + qc.ops[5] + qc.ops[0]
	t.rel = t.blockRel + m.Sched
	t.zero, t.sched, t.plain = sc.mm.zero, m.Sched, qc.plain
	tab := r.tab
	for t.eq < len(tab) && tab[t.eq].prio < e.LocalPriority {
		t.eq++
	}
	t.pos = t.eq
	for t.pos < len(tab) && tab[t.pos].prio == e.LocalPriority {
		t.pos++
	}
}

// blocking is ensureCosts' blocking term of an entity with lc strictly
// lower entities.
func (t *tableState) blocking(lc int) timeq.Time {
	if t.zero {
		return 0
	}
	batch := t.blockRel * timeq.Time(lc)
	if batch > 0 {
		batch += t.sched
	}
	return batch + t.plain
}

// sums sets s to the screen sums of an entity whose committed
// interferers are those of hp, at C′, and those of lo, at rel.
func (t *tableState) sums(s *rtaSums, hp, lo *tabSums) {
	a := float64(t.a)
	*s = rtaSums{u: hp.ct + a*hp.invT, c: hp.c + a*float64(hp.n)}
	if t.rel > 0 {
		rel := float64(t.rel)
		s.u += rel * lo.invT
		s.c += rel * float64(lo.n)
	}
}

// tableSlot is one entity of a table probe's state: its base b,
// deadline d and screen sums s; its committed interferers, those before
// hpEnd at C′ and those from loStart on at rel; and the probed task's
// coefficient ec in its response time (0: inert).
//
// long is what the interferers of period T ≥ d charge, for the screen:
// each releases exactly once in (0, d], so for r in (0, d] its term
// c·⌈r/T⌉ is c, not merely at least c·r/T. The probed task's slot moves
// them from s into the screen's base B + long, which tightens every
// bound rtaScreen reads: f(r) ≥ B + long + r·U′ for every r > 0, since
// ⌈r/T⌉ ≥ 1; and f(r) < B + long + N′ + r·U′ on (0, d]. The primed
// sums are over the shorter periods; a committed slot has long = 0.
type tableSlot struct {
	b, d           timeq.Time
	s              rtaSums
	hpEnd, loStart int
	ec, long       timeq.Time
}

// slot sets x to committed entity i of the probe state, or to e for
// i < 0.
func (t *tableState) slot(i int, x *tableSlot) {
	tab, e := t.r.tab, t.e
	if i < 0 {
		var hp, lo tabSums
		x.long = 0
		for j := range t.eq {
			if r := &tab[j]; r.t >= e.D {
				x.long += r.c + t.a
			} else {
				hp.add(r)
			}
		}
		for j := t.pos; j < len(tab); j++ {
			if r := &tab[j]; r.t >= e.D && t.rel > 0 {
				x.long += t.rel
			} else {
				lo.add(r)
			}
		}
		t.sums(&x.s, &hp, &lo)
		x.b, x.d = timeq.AddSat(e.C+t.a, t.blocking(len(tab)-t.pos)), e.D
		x.hpEnd, x.loStart, x.ec = t.eq, t.pos, 0
		return
	}
	row := &tab[i]
	t.sums(&x.s, &row.hp, &row.lo)
	x.d, x.hpEnd, x.loStart, x.ec, x.long = row.d, row.hp.n, len(tab)-row.lo.n, 0, 0
	lc := row.lo.n
	switch {
	case e.LocalPriority < row.prio:
		x.ec = e.C + t.a
	case e.LocalPriority > row.prio:
		lc++
		x.ec = t.rel
	}
	if x.ec > 0 {
		x.s.add(float64(x.ec), float64(e.T), 0)
	}
	x.b = timeq.AddSat(row.c+t.a, t.blocking(lc))
}

// tableDecide screens entity x of table probe t and, where the screen
// decides nothing, solves it from the screen's start.
func (p *fpProbe) tableDecide(t *tableState, x *tableSlot) bool {
	start, pass, refuse := rtaScreen(timeq.AddSat(x.b, x.long), x.d, x.s, len(t.r.tab)+1)
	if refuse || pass {
		return pass
	}
	_, ok, iters := p.tableSolve(t, x, start)
	p.countSolve(start, iters)
	return ok
}

// countSolve records one solve from start that took iters iterations.
func (p *fpProbe) countSolve(start timeq.Time, iters int) {
	p.stats.FPSolves++
	p.stats.FPIterations += int64(iters)
	if start > 0 {
		p.stats.WarmStarts++
	}
}

// tableSolve runs the response-time fixed point of entity x of table
// probe t from start.
func (p *fpProbe) tableSolve(t *tableState, x *tableSlot, start timeq.Time) (timeq.Time, bool, int) {
	sc, tab := p.sc, t.r.tab
	coef, per := sc.coef[:0], sc.per[:0]
	for j := range x.hpEnd {
		coef = append(coef, tab[j].c+t.a)
		per = append(per, tab[j].t)
	}
	if t.rel > 0 {
		for j := x.loStart; j < len(tab); j++ {
			coef = append(coef, t.rel)
			per = append(per, tab[j].t)
		}
	}
	coef = append(coef, x.ec)
	per = append(per, t.e.T)
	for len(sc.jit) < len(coef) {
		sc.jit = append(sc.jit, 0)
	}
	sc.coef, sc.per = coef, per
	return fpFixedPoint(x.b, start, x.d, coef, sc.jit[:len(coef)], per)
}

// screenMargin is the relative slack the closed-form screens leave
// their float arithmetic: within it of the deadline, the exact solve
// decides.
const screenMargin = 1e-9

// queueCosts fills v's queue-cost memo for bound n from the scratch's
// memo.
func (p *fpProbe) queueCosts(v *probeView, n int) {
	cs := &v.cs
	if !cs.qcOK || cs.qcModel != p.m || cs.qcN != n {
		cs.useQueueCosts(p.m, n, *p.sc.mm.queueCosts(p.m, n))
	}
}

// fullTest is the full admission test of the committed state.
func (p *fpProbe) fullTest() bool {
	sc := p.sc
	sc.run++
	sc.size(len(p.cores))
	p.buildViews(nil, nil, -1, p.maxN)
	p.cloneChains(nil)
	p.resolve()
	if len(sc.failed) > 0 {
		return false
	}
	for c := range p.cores {
		if !fpEvalCore(p, &sc.views[c], nil) {
			return false
		}
	}
	return true
}

// buildViews fills the views the evaluation reads: the probed core
// (every core when probeCore < 0), the cores the tentative entities
// land on and the cores hosting a chain entity. Nothing solves on any
// other.
func (p *fpProbe) buildViews(add []*Entity, addCores []int, probeCore, n int) {
	if len(add) > 0 {
		p.addCM = p.sc.mm.maxDelay(p.m, add[0].Task.WSS)
	}
	fill := func(c int) {
		if v := &p.sc.views[c]; v.run != p.sc.run {
			p.fillView(v, c, add, addCores, n)
		}
	}
	for c := range p.cores {
		if probeCore < 0 || c == probeCore {
			fill(c)
		}
	}
	for _, d := range addCores {
		fill(d)
	}
	for _, ch := range p.chains {
		for _, d := range ch.cores {
			fill(d)
		}
	}
}

// fillView copies core c's committed record into v and merges in the
// tentative entities hosted there. The view's cost caches survive only
// a refill from the very contents they were computed for — the same
// slice at the same revision, nothing tentative, which is every core a
// chain probe reads but does not touch; the queue bound and the model
// are the cache's own keys. A chain entity's clone costs what the
// entity does: jitters are not part of the costs.
func (p *fpProbe) fillView(v *probeView, c int, add []*Entity, addCores []int, n int) {
	base := &p.cores[c]
	ents := append(v.cs.Entities[:0], base.ents...)
	cm := base.cacheMax
	var src **Entity
	if len(base.ents) > 0 {
		src = &base.ents[0]
	}
	for i, e := range add {
		if addCores[i] != c {
			continue
		}
		src = nil
		ents = insertByPriority(ents, e)
		cm = max(cm, p.addCM)
	}
	if src == nil || src != v.src || base.rev != v.rev {
		v.cs.invalidateCosts()
	}
	p.queueCosts(v, n)
	v.src, v.rev = src, base.rev
	v.run = p.sc.run
	v.cs.Entities = ents
	v.cs.N = n
	v.cs.CacheMax = cm
}

// insertByPriority inserts e into a priority-sorted entity slice, after
// any equal-priority entities (matching the stable sort of NewCoreSet
// over the canonical build order). In place: only for slices no
// snapshot can reference.
func insertByPriority(ents []*Entity, e *Entity) []*Entity {
	i := 0
	for i < len(ents) && ents[i].LocalPriority <= e.LocalPriority {
		i++
	}
	return slices.Insert(ents, i, e)
}

// cloneChains clones the committed chains into the scratch slabs — the
// resolution moves the clones' jitters, never a committed entity's —
// swaps the clones into the views, appends the tentative chain (owned
// by the probe already) and clears the resolution's outputs.
func (p *fpProbe) cloneChains(tent *fpSnapChain) {
	sc := p.sc
	nclone := 0
	for _, ch := range p.chains {
		nclone += len(ch.ents)
	}
	if cap(sc.cloneSlab) < nclone {
		sc.cloneSlab = make([]Entity, nclone)
		sc.clonePtrs = make([]*Entity, nclone)
	}
	clones, ptrs := sc.cloneSlab[:nclone], sc.clonePtrs[:nclone]
	sc.chains = sc.chains[:0]
	off := 0
	for _, ch := range p.chains {
		k := len(ch.ents)
		cents := ptrs[off : off+k : off+k]
		for i, e := range ch.ents {
			ce := &clones[off+i]
			*ce = *e
			cents[i] = ce
			ents := sc.views[ch.cores[i]].cs.Entities
			for j, o := range ents {
				if o == e {
					ents[j] = ce
					break
				}
			}
		}
		off += k
		sc.chains = append(sc.chains, fpSnapChain{sp: ch.sp, cores: ch.cores, ents: cents})
	}
	if tent != nil {
		sc.chains = append(sc.chains, *tent)
	}
	clear(sc.failed)
	for c := range sc.views {
		sc.views[c].jMoved = false
	}
}

// solve runs one response-time fixed point of the view's entity idx
// from start, which must be a lower bound of the entity's least fixed
// point on the view.
func (p *fpProbe) solve(v *probeView, idx int, start timeq.Time) (timeq.Time, bool) {
	r, ok, iters := v.cs.responseTime(v.cs.Entities[idx], p.m, start)
	p.countSolve(start, iters)
	return r, ok
}

// fpEvalCore is the per-core admission test of the incremental engine:
// the failed veto, then every entity's response time.
//
// It evaluates failure first. Once the chain jitters are resolved the
// core's verdict is an AND over per-entity fixed points that share no
// mutable state — a solve only reads the set — so the order of evaluation cannot change the verdict, only
// how soon a rejection is known. The veto costs no solve, so it goes
// first; the entities go lowest priority first, because the entity a
// rejected probe breaks is almost always near the bottom of the order
// (it sees every other entity's interference), and a walk from the top
// solves every passing entity above it before finding out. The
// stateless Cores.SchedulableCore keeps the naive top-down order and
// is what the differential suites compare against.
//
// Each entity meets its closed-form screen (rtaScreen) first, which
// refuses it, passes it or starts its solve; only the entities the
// screen leaves open are solved.
func fpEvalCore(p *fpProbe, v *probeView, failed map[*Entity]bool) bool {
	p.stats.CoreTests++
	if len(failed) > 0 {
		for _, e := range v.cs.Entities {
			if failed[e] {
				return false
			}
		}
	}
	w := p.screens(v)
	for i := len(v.cs.Entities) - 1; i >= 0; i-- {
		start, pass, refuse := w.next(i)
		if refuse {
			return false
		}
		if pass {
			continue
		}
		if _, ok := p.solve(v, i, start); !ok {
			return false
		}
	}
	return true
}

// rtaSums are sums over an entity's interferers: with each one's
// coefficient c — C′ⱼ for a higher-priority entity, rel for a
// lower-priority timer-released one — u = Σc/T, c = Σc and l = Σc·J/T.
type rtaSums struct{ u, c, l float64 }

// add counts one interferer of period t, jitter j and coefficient c.
func (s *rtaSums) add(c, t, j float64) {
	inv := 1 / t
	s.u += c * inv
	s.c += c
	s.l += c * j * inv
}

// screenWalk yields the screen of every entity of one view, lowest
// priority first: next(k−1), next(k−2), … next(0), in that order.
type screenWalk struct {
	cs *CoreSet
	hp []rtaSums // the higher-priority sums of each entity
	ok bool      // the entities are priority-sorted; else none is screened
	// The timer-released entities strictly below the current priority
	// group, and those in it, counted at c = 1.
	lo, grp rtaSums
}

// screens makes the walk's one O(k) pass over the view: the prefix
// sums over higher-priority groups. responseTime classifies the same
// way: an equal priority, the entity itself and a lower-priority
// migrated arrival are inert.
func (p *fpProbe) screens(v *probeView) screenWalk {
	cs := &v.cs
	cs.ensureCosts(p.m)
	ents := cs.Entities
	if cap(p.sc.hp) < len(ents) {
		p.sc.hp = make([]rtaSums, len(ents))
	}
	w := screenWalk{cs: cs, hp: p.sc.hp[:len(ents)], ok: true}
	var run, grp rtaSums
	for i, e := range ents {
		if i == 0 || e.LocalPriority != ents[i-1].LocalPriority {
			w.ok = w.ok && (i == 0 || e.LocalPriority > ents[i-1].LocalPriority)
			grp = run
		}
		w.hp[i] = grp
		run.add(float64(cs.infl[i]), float64(e.T), float64(e.Jitter))
	}
	return w
}

// next screens entity i, after every entity below it.
func (w *screenWalk) next(i int) (start timeq.Time, pass, refuse bool) {
	ents := w.cs.Entities
	e := ents[i]
	if i < len(ents)-1 && e.LocalPriority != ents[i+1].LocalPriority {
		w.lo.u += w.grp.u
		w.lo.c += w.grp.c
		w.lo.l += w.grp.l
		w.grp = rtaSums{}
	}
	s := w.hp[i]
	if rel := float64(w.cs.relCost); rel > 0 {
		s.u += rel * w.lo.u
		s.c += rel * w.lo.c
		s.l += rel * w.lo.l
	}
	if !e.MigrIn {
		w.grp.add(1, float64(e.T), float64(e.Jitter))
	}
	if !w.ok {
		return 0, false, false
	}
	return rtaScreen(timeq.AddSat(w.cs.infl[i], w.cs.blocking[i]), e.D-e.Jitter, s, len(ents))
}

// rtaScreen decides an entity from closed-form bounds of its
// response-time function
//
//	f(r) = B + Σⱼ cⱼ·⌈(r + Jⱼ)/Tⱼ⌉
//
// on a core of k entities, where B = C′ + blocking is its base, the
// sums s run over its interferers and limit = D − J. Since
// x ≤ ⌈x⌉ < x + 1,
//
//	B + L + r·U ≤ f(r) < B + N + r·U,  N = Σc·(1 + J/T) = s.c + L,
//
// with U = s.u and L = s.l. It refuses when B + L + limit·U > limit
// (B > 0): every r ≤ limit then has f(r) > r, so no fixed point lies
// at or below limit. It passes when B + N + limit·U ≤ limit: then
// f(limit) ≤ limit, and the iteration from B (f(r) ≥ B) climbs to the
// least fixed point without leaving [B, limit]. Both tests keep the
// relative margin clear of their float sums. Otherwise start is
// (B + L)/(1 − U), rounded down past the float error of U: every fixed
// point r has r ≥ B + L + r·U, so it is a lower bound of the least one
// to start the solve from, which converges to the same point as from 0.
// The start is dropped where U is too near 1 for its float error.
func rtaScreen(b, limit timeq.Time, s rtaSums, k int) (start timeq.Time, pass, refuse bool) {
	if limit <= 0 {
		return 0, false, false
	}
	bf, d := float64(b), float64(limit)
	if b > 0 && bf+s.l+d*s.u > d*(1+screenMargin) {
		return 0, false, true
	}
	if bf+s.c+s.l+d*s.u <= d*(1-screenMargin) {
		return 0, true, false
	}
	// U's terms carry two roundings each and its sums one per term, so
	// its relative error is below (k+1)·2⁻⁵²; the guard keeps that
	// clear of the margin, with room for the error of B + L.
	den := 1 - s.u
	if den*screenMargin <= float64(k+4)*0x1p-52*s.u {
		return 0, false, false
	}
	return timeq.Time(min((bf+s.l)/den*(1-screenMargin), d)), false, false
}

// resolve runs the split-chain jitter fixed point over the views,
// mirroring Cores.resolveJitters pass for pass: warm-started from the
// committed jitters under a monotone model, cold from zero otherwise
// (the committed jitters may overshoot this evaluation's least fixed
// point). It leaves the entities it could not fit in sc.failed and
// marks the views hosting a jitter it moved.
func (p *fpProbe) resolve() {
	const maxPasses = 1000
	sc := p.sc
	if !p.mono {
		for _, ch := range sc.chains {
			for _, e := range ch.ents {
				e.Jitter = 0
			}
		}
	}
	for pass := 0; pass < maxPasses && len(sc.chains) > 0; pass++ {
		changed := false
		for _, ch := range sc.chains {
			cum := timeq.Time(0)
			for i, e := range ch.ents {
				v := &sc.views[ch.cores[i]]
				if e.Jitter != cum {
					e.Jitter = cum
					changed = true
					v.jMoved = true
				}
				idx := 0
				for v.cs.Entities[idx] != e {
					idx++
				}
				r, ok := p.solve(v, idx, 0)
				if !ok {
					if sc.failed == nil {
						sc.failed = make(map[*Entity]bool)
					}
					sc.failed[e] = true
					r = e.D
				} else {
					delete(sc.failed, e)
				}
				cum = timeq.AddSat(cum, r)
			}
		}
		if !changed {
			break
		}
	}
}

// edfEvalProbe is the EDF engine: the processor-demand test of core
// record r with the tentative entities inserted in the canonical
// stateless build order — a whole task (place) after the committed
// normals and before any split parts, the a.Normal[c] append order;
// tentative parts last, their split being the newest in a.Splits. With
// neither it tests the committed core. The probe set is assembled in
// cs, whose cost buffers persist across calls; nothing else of it
// outlives the probe. Beside the verdict it returns the number of
// deadlines the demand was evaluated at.
func edfEvalProbe(m *overhead.Model, r *coreRec, cs *CoreSet, c int, place *Entity, parts []*Entity, partCores []int, n int) (ok bool, points int64) {
	edfProbeSet(m, r, cs, c, place, parts, partCores, n)
	l, b, ok := cs.edfHorizon(m)
	if !ok {
		return false, 0
	}
	ok, points, _ = cs.edfDemandWalk(l, b)
	return ok, points
}

// edfProbeSet assembles in cs the probe set edfEvalProbe tests: core
// record r with the tentative entities inserted in canonical order.
func edfProbeSet(m *overhead.Model, r *coreRec, cs *CoreSet, c int, place *Entity, parts []*Entity, partCores []int, n int) {
	buf := cs.Entities[:0]
	cm := r.cacheMax
	if place != nil {
		buf = append(buf, r.ents[:r.nNormals]...)
		buf = append(buf, place)
		buf = append(buf, r.ents[r.nNormals:]...)
		if d := m.Cache.MaxDelay(place.Task.WSS); d > cm {
			cm = d
		}
	} else {
		buf = append(buf, r.ents...)
		for i, e := range parts {
			if partCores[i] != c {
				continue
			}
			buf = append(buf, e)
			if d := m.Cache.MaxDelay(e.Task.WSS); d > cm {
				cm = d
			}
		}
	}
	cs.Entities = buf
	cs.N = n
	cs.CacheMax = cm
	cs.invalidateCosts()
}

// edfDemandWalk decides what the oracle's enumeration decides: every
// absolute deadline d ≤ l has h(d) ≤ d, where
//
//	h(t) = B + Σᵢ dbfᵢ(t)·C'ᵢ + Σ_{i timer-released} rel·⌈t/Tᵢ⌉
//
// is the demand of edf.go. It walks down from l. At a deadline t with
// h(t) ≤ t, every deadline d in [h(t), t] passes as well, h being
// non-decreasing: h(d) ≤ h(t) ≤ d. So the walk goes on from the last
// deadline below h(t) and passes when there is none; a deadline with
// h(t) > t is one the enumeration reaches and fails at too.
//
// It is not textbook QPA, which continues from t = h(t) itself: the
// release term steps just after multiples of a period, not at
// deadlines, so h can exceed t at an instant that is no deadline while
// every deadline passes — and deadlines are all the criterion asks of.
//
// The deadlinePointCap verdict is kept in closed form: raw is the
// number of deadlines the enumeration would list, and it bounds the
// walk, whose every step lands on a different one of them. points
// counts the deadlines h was evaluated at, and miss is the deadline h
// exceeded (-1 when the walk passed or the cap rejected the core). The
// caller ran edfHorizon, which filled the cost cache and the flat
// mirrors.
func (cs *CoreSet) edfDemandWalk(l, b timeq.Time) (ok bool, points int64, miss timeq.Time) {
	k := len(cs.Entities)
	infl, rel := cs.infl[:k], cs.relCost
	periods, deadlines, migr := cs.soaT[:k], cs.soaD[:k], cs.soaMigr[:k]
	raw := int64(0)
	for i := 0; i < k; i++ {
		if d := deadlines[i]; d <= l {
			n := int64(l-d)/int64(periods[i]) + 1
			if n > deadlinePointCap-raw {
				return false, 0, -1
			}
			raw += n
		}
	}
	for x := l; ; {
		// The last absolute deadline ≤ x.
		t := timeq.Time(-1)
		for i := 0; i < k; i++ {
			if d := deadlines[i]; d <= x {
				if last := x - (x-d)%periods[i]; last > t {
					t = last
				}
			}
		}
		if t < 0 {
			return true, points, -1
		}
		points++
		h := b
		for i := 0; i < k; i++ {
			if d := deadlines[i]; d <= t {
				h = timeq.AddSat(h, timeq.MulCount(infl[i], int64(t-d)/int64(periods[i])+1))
			}
			if rel > 0 && !migr[i] {
				h = timeq.AddSat(h, timeq.MulCount(rel, timeq.CeilDiv(t, periods[i])))
			}
		}
		if h > t {
			return false, points, t
		}
		x = h - 1
	}
}
