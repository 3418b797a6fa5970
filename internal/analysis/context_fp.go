package analysis

import (
	"sort"
	"sync/atomic"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// fpContext is the incremental fixed-priority admission context: the
// stateful counterpart of fpAnalyzer.CoreSchedulable. It keeps the
// per-core entity sets built (entities are only ever added, so each
// mutation is a sorted insert, never a rebuild), warm-starts every
// response-time fixed point and the split-chain jitter resolution
// from the committed converged values, and caches per-core verdicts
// keyed by (content revision, queue bound N, jitter generation) so a
// core no mutation dirtied is never re-analyzed.
//
// Dirty tracking: a whole-task placement dirties one core; a split
// dirties every core in its chain (each part's host), and a jitter
// resolution that moves a chain's converged jitters dirties every
// core hosting an entity whose jitter changed.
type fpContext struct {
	ctxBase

	sets   []*CoreSet // committed per-core sets, entities sorted by priority
	revs   []int64    // per-core content revision
	chains []*fpChain // committed chains, in a.Splits order

	// Warm-start values live directly on the (context-owned) entities:
	// Entity.warmR is the committed converged response time, and
	// Entity.warmProbe/warmSeq carry the pending probe's values —
	// rollback is O(1), the sequence simply moves on. probeSeq is the
	// current probe's tag; inProbe routes converged values to the
	// probe slot (probes) or the committed slot (full tests).
	probeSeq int64
	inProbe  bool

	jEpoch   int64   // jitter generation counter
	coreJGen []int64 // last generation a chain jitter on core c changed

	verdicts  []fpVerdict
	lastProbe []fpProbeRecord

	resolveSeq int64 // commitSeq the last committed resolution was valid for
	lastFailed map[*Entity]bool

	pend fpPending

	// Snapshot publication (the lock-free read path): pub holds the
	// latest published snapshot, swapped atomically on every committed
	// mutation; snapDirty marks cores whose published record (entity
	// slice or warm vector) must be rebuilt rather than reused from
	// the previous snapshot. Cores hosting chain entities are always
	// rebuilt (their published entities are clones carrying the
	// committed jitters).
	pub       atomic.Pointer[fpSnapshot]
	snapDirty []bool

	// scratch (reused across probes)
	views       []*CoreSet
	probeBuf    [][]*Entity
	probeCS     []CoreSet
	chainBuf    []*fpChain
	jSnapBuf    []timeq.Time
	builtBuf    []int
	jChangedBuf map[int]bool
	scratchEnt  Entity
	placeEnts   [1]*Entity
	placeCores  [1]int

	// Slab recycling (Reset) and cross-context verdict sharing. entFree
	// and chainFree hold reclaimed objects — only ever objects no
	// published snapshot can reference (rolled-back probe chains, and
	// committed slabs of a context that never engaged publication).
	entFree   []*Entity
	chainFree []*fpChain
	sweep     *SweepCache
	// sweepNodes[c] is core c's interned committed state, folded
	// lazily at the first memo consultation after a mutation:
	// sweepRevs[c] remembers which revs[c] the cached node reflects
	// (-1 = never folded), so adoptions pay nothing and cores that are
	// never probed again are never folded. sweepOff disables sharing
	// until the next Reset once chains or removals make per-core
	// verdicts non-local.
	sweepNodes []*sweepNode
	sweepRevs  []int64
	sweepOff   bool
}

// fpWarmKey identifies one schedulable entity stably across probes: a
// task appears either whole (split=false, part 0) or as split parts.
type fpWarmKey struct {
	id    task.ID
	part  int
	split bool
}

func fpKey(e *Entity) fpWarmKey {
	return fpWarmKey{id: e.Task.ID, part: e.PartIndex, split: e.MigrIn || e.MigrOut}
}

// fpChain is the committed analysis view of one split: its entities
// in part order with their host cores.
type fpChain struct {
	sp    *task.Split
	ents  []*Entity
	cores []int
}

// fpVerdict caches one core's last admission verdict.
type fpVerdict struct {
	valid bool
	ok    bool
	rev   int64
	n     int
	jGen  int64
}

// fpProbeRecord remembers the latest rolled-back probe against a core
// so an unprobed Place of the identical task in the same committed
// epoch promotes the probe's verdict and warm values — the
// probe-every-core-then-place-on-best pattern of the bin-packing
// heuristics. probeSeq identifies the probe's warm tags; tentR is the
// tentative entity's own converged response time (its scratch slot is
// overwritten by later probes).
type fpProbeRecord struct {
	seq      int64
	probeSeq int64
	key      fpWarmKey
	ok       bool
	valid    bool
	tentR    timeq.Time
}

const (
	pendNone = iota
	pendPlace
	pendSplit
)

// fpPending is the state of the one in-flight provisional mutation.
type fpPending struct {
	kind      int
	probeCore int
	fits      bool
	probeN    int
	addEnts   []*Entity // tentative entities
	addCores  []int     // their host cores (parallel)
	chain     *fpChain  // tentative chain (splits only)
	resolved  bool      // a jitter resolution ran
	jChanged  map[int]bool
	failed    map[*Entity]bool
}

func newFPContext(an Analyzer, a *task.Assignment, m *overhead.Model) *fpContext {
	nc := a.NumCores
	x := &fpContext{
		ctxBase:   ctxBase{an: an, a: a, m: m, mono: modelMonotone(m)},
		sets:      make([]*CoreSet, nc),
		revs:      make([]int64, nc),
		coreJGen:  make([]int64, nc),
		verdicts:  make([]fpVerdict, nc),
		lastProbe: make([]fpProbeRecord, nc),
		views:     make([]*CoreSet, nc),
		probeBuf:  make([][]*Entity, nc),
		probeCS:   make([]CoreSet, nc),
		snapDirty: make([]bool, nc),
	}
	x.resolveSeq = -1
	for c := 0; c < nc; c++ {
		x.sets[c] = &CoreSet{}
	}
	// Adopt whatever the assignment already contains (contexts may be
	// opened over hand-built assignments, not just empty ones).
	for c := 0; c < nc; c++ {
		for _, t := range a.Normal[c] {
			x.adoptEntity(newFPEntity(t), c)
		}
	}
	for _, sp := range a.Splits {
		ch := buildFPChain(sp)
		for i, e := range ch.ents {
			x.adoptEntity(e, ch.cores[i])
		}
		x.chains = append(x.chains, ch)
	}
	return x
}

// Fork returns the latest published snapshot. The first call engages
// publication (and must run on the owning goroutine — see the
// interface contract); afterwards it is a lock-free atomic load from
// any goroutine. Contexts that never fork never publish: the
// fork-free packing and sweep hot loops pay nothing.
func (x *fpContext) Fork() Snapshot {
	if !x.publishing.Load() {
		x.publish(pubUnknown, false)
		x.publishing.Store(true)
	}
	return x.pub.Load()
}

// publish builds and atomically installs a fresh snapshot of the
// committed state. Runs on the owner after every committed mutation
// once forking is engaged. Cores neither dirtied nor hosting chain
// entities reuse the previous snapshot's record — copy-on-write, so
// the steady-state cost is O(cores) plus the dirtied cores' warm
// vectors.
func (x *fpContext) publish(hint pubHint, fits bool) {
	prev := x.pub.Load()
	nc := len(x.sets)
	s := &fpSnapshot{cores: make([]fpSnapCore, nc)}
	s.captureView(&x.ctxBase, x.commitSeq)
	s.maxN = x.maxN

	// Clone chain entities once per publish: the owner keeps mutating
	// the originals' jitters and warm slots, so readers get private
	// copies with the committed values baked in.
	var chainCore []bool
	var cloneOf map[*Entity]*Entity
	if len(x.chains) > 0 {
		chainCore = make([]bool, nc)
		for _, ch := range x.chains {
			for _, c := range ch.cores {
				chainCore[c] = true
			}
		}
		cloneOf = make(map[*Entity]*Entity)
		s.chains = make([]fpSnapChain, 0, len(x.chains))
		for _, ch := range x.chains {
			sc := fpSnapChain{sp: ch.sp, cores: ch.cores, ents: make([]*Entity, len(ch.ents))}
			for i, e := range ch.ents {
				ce := new(Entity)
				*ce = *e
				sc.ents[i] = ce
				cloneOf[e] = ce
			}
			s.chains = append(s.chains, sc)
		}
	}
	for c := 0; c < nc; c++ {
		onChain := chainCore != nil && chainCore[c]
		if prev != nil && !x.snapDirty[c] && !onChain && len(prev.cores[c].ents) == len(x.sets[c].Entities) {
			// Unchanged record: reuse it, probe memo included — but a
			// changed global queue bound invalidates every memoized
			// verdict (probeN depends on it).
			s.cores[c] = prev.cores[c]
			if s.maxN != prev.maxN {
				s.cores[c].probes = &probeCache{}
			}
			continue
		}
		ents := x.sets[c].Entities
		if onChain {
			swapped := make([]*Entity, len(ents))
			for i, e := range ents {
				if ce, ok := cloneOf[e]; ok {
					swapped[i] = ce
				} else {
					swapped[i] = e
				}
			}
			ents = swapped
		}
		rec := fpSnapCore{ents: ents, cacheMax: x.sets[c].CacheMax, probes: &probeCache{}}
		if x.mono {
			warm := make([]timeq.Time, len(ents))
			for i, e := range x.sets[c].Entities {
				warm[i] = e.warmR
			}
			rec.warm = warm
		}
		s.cores[c] = rec
		x.snapDirty[c] = false
	}
	s.deriveSched(prevView(prev), hint, fits, len(x.chains) > 0)
	x.pub.Store(s)
}

// prevView unwraps the previous snapshot's shared view (nil-safe).
func prevView(prev *fpSnapshot) *snapView {
	if prev == nil {
		return nil
	}
	return &prev.snapView
}

// markDirty flags core c for rebuild at the next publish.
func (x *fpContext) markDirty(c int) { x.snapDirty[c] = true }

// newFPEntity mirrors the whole-task entity of BuildCores.
func newFPEntity(t *task.Task) *Entity {
	return newFPEntityInto(new(Entity), t)
}

// newFPEntityInto fills e in place (scratch reuse on the probe path).
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

// buildFPChain mirrors the split-chain entities of BuildCores.
func buildFPChain(sp *task.Split) *fpChain {
	ch := &fpChain{sp: sp}
	last := len(sp.Parts) - 1
	for i, p := range sp.Parts {
		ch.ents = append(ch.ents, &Entity{
			Task:           sp.Task,
			C:              p.Budget,
			T:              sp.Task.Period,
			D:              sp.Task.EffectiveDeadline(),
			LocalPriority:  sp.LocalPriority(),
			PartIndex:      i,
			MigrIn:         i > 0,
			MigrOut:        i < last,
			RemoteSleepAdd: i == last,
		})
		ch.cores = append(ch.cores, p.Core)
	}
	return ch
}

// adoptEntity commits e onto core c's live set. Once publication is
// engaged the insert is copy-on-write — committed entity slices are
// shared with published snapshots, so they are never shifted in
// place. Before the first Fork no snapshot exists, so the fork-free
// sweep hot loop inserts in place and reuses slice capacity.
func (x *fpContext) adoptEntity(e *Entity, c int) {
	s := x.sets[c]
	if x.publishing.Load() {
		s.Entities = insertByPriorityCOW(s.Entities, e)
	} else {
		s.Entities = insertByPriority(s.Entities, e)
	}
	x.markDirty(c)
	s.invalidateCosts()
	if d := x.m.Cache.MaxDelay(e.Task.WSS); d > s.CacheMax {
		s.CacheMax = d
	}
	if n := len(s.Entities); n > x.maxN {
		x.maxN = n
	}
	x.revs[c]++
}

// newEntity returns an entity from the recycle pool (Reset and
// rolled-back split probes refill it); callers overwrite every field.
func (x *fpContext) newEntity() *Entity {
	if n := len(x.entFree); n > 0 {
		e := x.entFree[n-1]
		x.entFree = x.entFree[:n-1]
		return e
	}
	return new(Entity)
}

// newChain is buildFPChain from the recycle pools: rolled-back split
// probes return their chain and entities, so the packing loops'
// budget searches stop allocating per probe. Every entity field is
// overwritten, erasing stale warm and jitter state.
func (x *fpContext) newChain(sp *task.Split) *fpChain {
	var ch *fpChain
	if n := len(x.chainFree); n > 0 {
		ch, x.chainFree = x.chainFree[n-1], x.chainFree[:n-1]
	} else {
		ch = &fpChain{}
	}
	ch.sp = sp
	ch.ents = ch.ents[:0]
	ch.cores = ch.cores[:0]
	last := len(sp.Parts) - 1
	for i, p := range sp.Parts {
		e := x.newEntity()
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
	return ch
}

// freeChain returns a rolled-back probe chain and its (never
// published) entities to the pools.
func (x *fpContext) freeChain(ch *fpChain) {
	x.entFree = append(x.entFree, ch.ents...)
	ch.sp = nil
	ch.ents = ch.ents[:0]
	ch.cores = ch.cores[:0]
	x.chainFree = append(x.chainFree, ch)
}

// sweepNode returns core c's interned committed state, or nil when
// sharing is unavailable (no cache attached, or disabled by chains or
// removals). The fold runs lazily, once per committed revision:
// entity slices are priority-sorted with unique priorities within a
// task set, so the fold order — hence the node — is determined by the
// core's contents alone, however a context arrived at them.
func (x *fpContext) sweepNode(c int) *sweepNode {
	if x.sweep == nil || x.sweepOff {
		return nil
	}
	if x.sweepRevs[c] != x.revs[c] {
		x.sweepNodes[c] = x.sweep.fold(x.sets[c].Entities)
		x.sweepRevs[c] = x.revs[c]
	}
	return x.sweepNodes[c]
}

// sweepDisable turns off cross-context sharing until the next Reset.
func (x *fpContext) sweepDisable() {
	if x.sweep == nil || x.sweepOff {
		return
	}
	x.sweepOff = true
	for i := range x.sweepNodes {
		x.sweepNodes[i] = nil
	}
}

// sweepInvalidate drops every cached fold; the next sweepNode call
// per core refolds against the (possibly rebuilt) cache tries.
func (x *fpContext) sweepInvalidate() {
	for i := range x.sweepRevs {
		x.sweepRevs[i] = -1
	}
}

// insertByPriority inserts e into a priority-sorted entity slice,
// after any equal-priority entities (matching the stable sort of
// NewCoreSet over the canonical build order). In place — only for
// probe scratch buffers no snapshot can reference.
func insertByPriority(ents []*Entity, e *Entity) []*Entity {
	i := sort.Search(len(ents), func(k int) bool { return ents[k].LocalPriority > e.LocalPriority })
	ents = append(ents, nil)
	copy(ents[i+1:], ents[i:])
	ents[i] = e
	return ents
}

// insertByPriorityCOW is insertByPriority into a freshly allocated
// slice, leaving the input untouched (it may be shared with published
// snapshots).
func insertByPriorityCOW(ents []*Entity, e *Entity) []*Entity {
	i := sort.Search(len(ents), func(k int) bool { return ents[k].LocalPriority > e.LocalPriority })
	out := make([]*Entity, len(ents)+1)
	copy(out, ents[:i])
	out[i] = e
	copy(out[i+1:], ents[i:])
	return out
}

func (x *fpContext) ensureNoPending(op string) { x.checkNoPending(x.pend.kind, op) }

// solve runs one warm-started response-time fixed point of e on its
// host set, recording the converged value for future warm starts.
func (x *fpContext) solve(host *CoreSet, e *Entity) (timeq.Time, bool) {
	var start timeq.Time
	if x.mono {
		if x.inProbe && e.warmSeq == x.probeSeq {
			start = e.warmProbe
		} else {
			start = e.warmR
		}
	}
	r, ok, iters := host.responseTime(e, x.m, start)
	x.stats.FPSolves++
	x.stats.FPIterations += int64(iters)
	if start > 0 {
		x.stats.WarmStarts++
	}
	if ok && x.mono {
		if x.inProbe {
			e.warmProbe = r
			e.warmSeq = x.probeSeq
		} else {
			e.warmR = r
		}
	}
	return r, ok
}

// fpEvalCore is the per-core admission test of both incremental
// evaluators (the writer context here, the snapshot prober in
// snapshot.go): the failed veto, then every entity's response time,
// with solve running the caller's warm-started fixed point of the
// entity at an index of cs.
//
// It evaluates failure first. Once the chain jitters are resolved the
// core's verdict is an AND over per-entity fixed points that share no
// mutable state — a solve reads the set and writes only its own
// entity's warm slot — so the order of evaluation cannot change the
// verdict, only how soon a rejection is known. The veto costs no
// solve, so it goes first; the entities go lowest priority first,
// because the entity a rejected probe breaks is almost always near
// the bottom of the order (it sees every other entity's interference),
// and a walk from the top solves every passing entity above it before
// finding out. The stateless Cores.SchedulableCore keeps the naive
// top-down order and is what the differential suites compare against.
func fpEvalCore(cs *CoreSet, failed map[*Entity]bool, solve func(idx int) bool) bool {
	if len(failed) > 0 {
		for _, e := range cs.Entities {
			if failed[e] {
				return false
			}
		}
	}
	for i := len(cs.Entities) - 1; i >= 0; i-- {
		if !solve(i) {
			return false
		}
	}
	return true
}

// evalCore tests every entity of the set (see fpEvalCore).
func (x *fpContext) evalCore(cs *CoreSet, failed map[*Entity]bool) bool {
	x.stats.CoreTests++
	return fpEvalCore(cs, failed, func(i int) bool {
		_, ok := x.solve(cs, cs.Entities[i])
		return ok
	})
}

// resolve runs the split-chain jitter fixed point, mirroring
// Cores.resolveJitters pass for pass; jitters warm-start from the
// values left in the (committed) entities. jChanged collects the
// cores whose hosted chain jitters moved.
func (x *fpContext) resolve(views []*CoreSet, chains []*fpChain, jChanged map[int]bool) map[*Entity]bool {
	const maxPasses = 1000
	var failed map[*Entity]bool // lazily allocated; nil means no failures
	if len(chains) == 0 {
		return nil
	}
	if !x.mono {
		// Non-monotone model: the committed jitters may overshoot this
		// evaluation's least fixed point, so start cold from zero like
		// the stateless path's freshly built entities.
		for _, ch := range chains {
			for _, e := range ch.ents {
				e.Jitter = 0
			}
		}
	}
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, ch := range chains {
			cum := timeq.Time(0)
			for i, e := range ch.ents {
				if e.Jitter != cum {
					e.Jitter = cum
					changed = true
					if jChanged != nil {
						jChanged[ch.cores[i]] = true
					}
				}
				r, ok := x.solve(views[ch.cores[i]], e)
				if !ok {
					if failed == nil {
						failed = make(map[*Entity]bool)
					}
					failed[e] = true
					r = e.D
				} else {
					delete(failed, e)
				}
				cum = timeq.AddSat(cum, r)
			}
		}
		if !changed {
			break
		}
	}
	return failed
}

// probeSet builds the provisional CoreSet for core c with tentative
// entities inserted, reusing the per-core scratch buffers.
func (x *fpContext) probeSet(c int, add []*Entity, addCores []int, probeN int) *CoreSet {
	base := x.sets[c]
	buf := append(x.probeBuf[c][:0], base.Entities...)
	cm := base.CacheMax
	for i, e := range add {
		if addCores[i] != c {
			continue
		}
		buf = insertByPriority(buf, e)
		if d := x.m.Cache.MaxDelay(e.Task.WSS); d > cm {
			cm = d
		}
	}
	x.probeBuf[c] = buf
	cs := &x.probeCS[c]
	cs.Entities = buf
	cs.N = probeN
	cs.CacheMax = cm
	cs.invalidateCosts()
	return cs
}

// probeN returns the queue bound of the probe state: the committed
// bound, raised by any core that tentatively grew past it.
func (x *fpContext) probeN(addCores []int) int {
	n := x.maxN
	for c := range x.sets {
		grow := 0
		for _, d := range addCores {
			if d == c {
				grow++
			}
		}
		if k := len(x.sets[c].Entities) + grow; k > n {
			n = k
		}
	}
	return n
}

func (x *fpContext) TryPlace(t *task.Task, c int) bool {
	x.ensureNoPending("TryPlace")
	x.stats.Probes++
	x.a.Place(t, c)
	// The tentative entity lives in a reused scratch slot; Commit
	// clones it onto the heap before adopting it.
	x.scratchEnt = *newFPEntityInto(&x.scratchEnt, t)
	e := &x.scratchEnt
	x.placeEnts[0], x.placeCores[0] = e, c
	x.pend = fpPending{
		kind:      pendPlace,
		probeCore: c,
		addEnts:   x.placeEnts[:],
		addCores:  x.placeCores[:],
	}
	x.beginProbe()
	x.pend.probeN = x.probeN(x.pend.addCores)
	if len(x.chains) == 0 {
		// No chains, no cross-core coupling: probe core c alone
		// (mirrors the stateless fast path). The verdict is a pure
		// function of (core state, probed shape, queue bound), so the
		// shared sweep memo can answer before any fixed point runs.
		node := x.sweepNode(c)
		var shape sweepShape
		if node != nil {
			shape = sweepShapeOf(e)
			if v, hit := x.sweep.lookup(node, x.pend.probeN, shape); hit {
				x.stats.CoreTests++
				x.stats.VerdictHits++
				x.pend.fits = v
				return v
			}
		}
		ps := x.probeSet(c, x.pend.addEnts, x.pend.addCores, x.pend.probeN)
		x.pend.fits = x.evalCore(ps, nil)
		if node != nil {
			x.sweep.store(node, x.pend.probeN, shape, x.pend.fits)
		}
	} else {
		x.pend.fits = x.probeWithChains()
	}
	return x.pend.fits
}

func (x *fpContext) TrySplit(sp *task.Split, c int) bool {
	x.ensureNoPending("TrySplit")
	x.stats.Probes++
	x.a.Splits = append(x.a.Splits, sp)
	ch := x.newChain(sp)
	x.pend = fpPending{
		kind:      pendSplit,
		probeCore: c,
		addEnts:   ch.ents,
		addCores:  ch.cores,
		chain:     ch,
	}
	x.beginProbe()
	x.pend.probeN = x.probeN(x.pend.addCores)
	x.pend.fits = x.probeWithChains()
	return x.pend.fits
}

// probeWithChains evaluates the pending probe with split chains in
// play: per-core views (committed sets, probe sets for dirtied
// cores), a full warm-started jitter resolution, then the probed
// core's test — mirroring Cores.SchedulableCore on the probe state.
func (x *fpContext) probeWithChains() bool {
	probeN := x.pend.probeN
	for d := range x.sets {
		x.sets[d].N = probeN
		x.views[d] = x.sets[d]
	}
	x.builtBuf = x.builtBuf[:0]
	for _, d := range x.pend.addCores {
		seen := false
		for _, o := range x.builtBuf {
			if o == d {
				seen = true
				break
			}
		}
		if !seen {
			x.builtBuf = append(x.builtBuf, d)
			x.views[d] = x.probeSet(d, x.pend.addEnts, x.pend.addCores, probeN)
		}
	}
	// Snapshot committed chain jitters so Rollback can restore them.
	x.jSnapBuf = x.jSnapBuf[:0]
	for _, ch := range x.chains {
		for _, e := range ch.ents {
			x.jSnapBuf = append(x.jSnapBuf, e.Jitter)
		}
	}
	chains := x.chains
	if x.pend.chain != nil {
		chains = append(append(x.chainBuf[:0], x.chains...), x.pend.chain)
		x.chainBuf = chains[:len(chains)-1]
	}
	if x.jChangedBuf == nil {
		x.jChangedBuf = make(map[int]bool, 4)
	} else {
		clear(x.jChangedBuf)
	}
	x.pend.jChanged = x.jChangedBuf
	x.pend.failed = x.resolve(x.views, chains, x.pend.jChanged)
	x.pend.resolved = true
	return x.evalCore(x.views[x.pend.probeCore], x.pend.failed)
}

func (x *fpContext) Commit() {
	if x.pend.kind == pendNone {
		panic("analysis: Commit with no pending probe")
	}
	if x.mono {
		// Promote the probe's converged values: they are the new
		// committed system's least fixed points.
		x.promoteWarm(x.probeSeq, x.pend.addEnts)
		for _, d := range x.pend.addCores {
			x.promoteWarm(x.probeSeq, x.sets[d].Entities)
		}
		if x.pend.resolved {
			x.promoteWarm(x.probeSeq, x.sets[x.pend.probeCore].Entities)
			for _, ch := range x.chains {
				x.promoteWarm(x.probeSeq, ch.ents)
			}
		}
	}
	if x.pend.kind == pendPlace {
		// The tentative entity is the reused scratch slot: clone it
		// (onto a pooled entity — fully overwritten by the copy).
		e := x.newEntity()
		*e = *x.pend.addEnts[0]
		x.adoptEntity(e, x.pend.addCores[0])
	} else {
		// A committed chain couples its host cores through the jitter
		// resolution: per-core verdicts stop being shareable.
		x.sweepDisable()
		for i, e := range x.pend.addEnts {
			x.adoptEntity(e, x.pend.addCores[i])
		}
		x.chains = append(x.chains, x.pend.chain)
	}
	if x.pend.resolved {
		// The probe's converged jitters are the committed system's:
		// keep them, dirty the cores they moved on, and reuse the
		// resolution outcome for the next full test.
		for d := range x.pend.jChanged {
			x.jEpoch++
			x.coreJGen[d] = x.jEpoch
		}
		x.lastFailed = x.pend.failed
	}
	x.commitSeq++
	if x.pend.resolved {
		x.resolveSeq = x.commitSeq
	}
	pc := x.pend.probeCore
	x.verdicts[pc] = fpVerdict{valid: true, ok: x.pend.fits, rev: x.revs[pc], n: x.maxN, jGen: x.coreJGen[pc]}
	// Warm values were promoted on the probed and mutated cores:
	// their published warm vectors must be recaptured.
	x.markDirty(pc)
	for _, d := range x.pend.addCores {
		x.markDirty(d)
	}
	hint, fits := pubUnknown, false
	if x.pend.kind == pendPlace {
		hint, fits = pubAdmitted, x.pend.fits
	}
	x.inProbe = false
	x.pend = fpPending{}
	if h, f, now := x.commitPub(hint, fits); now {
		x.publish(h, f)
	}
}

func (x *fpContext) Rollback() {
	switch x.pend.kind {
	case pendNone:
		panic("analysis: Rollback with no pending probe")
	case pendPlace:
		c := x.pend.addCores[0]
		x.a.Normal[c] = x.a.Normal[c][:len(x.a.Normal[c])-1]
		// Remember the probe so an unprobed Place of the same task in
		// this committed epoch can promote its verdict and warm values.
		tent := x.pend.addEnts[0]
		rec := &x.lastProbe[c]
		rec.seq = x.commitSeq
		rec.probeSeq = x.probeSeq
		rec.key = fpKey(tent)
		rec.ok = x.pend.fits
		rec.valid = true
		rec.tentR = 0
		if tent.warmSeq == x.probeSeq {
			rec.tentR = tent.warmProbe
		}
	case pendSplit:
		x.a.Splits = x.a.Splits[:len(x.a.Splits)-1]
		// The tentative chain was never published: recycle it.
		x.freeChain(x.pend.chain)
	}
	if x.pend.resolved {
		i := 0
		for _, ch := range x.chains {
			for _, e := range ch.ents {
				e.Jitter = x.jSnapBuf[i]
				i++
			}
		}
	}
	x.inProbe = false
	x.pend = fpPending{}
	if h, f, now := x.rollbackPub(); now {
		x.publish(h, f)
	}
}

// beginProbe opens a fresh warm-tag epoch for the pending probe.
func (x *fpContext) beginProbe() {
	x.probeSeq++
	x.inProbe = true
}

// promoteWarm copies probe-epoch converged values into the committed
// warm slots for every entity the probe solved on the given cores and
// chains (tag-guarded, so values from other probes are never taken).
func (x *fpContext) promoteWarm(seq int64, ents []*Entity) {
	for _, e := range ents {
		if e.warmSeq == seq {
			e.warmR = e.warmProbe
		}
	}
}

func (x *fpContext) Place(t *task.Task, c int) {
	x.ensureNoPending("Place")
	x.a.Place(t, c)
	e := newFPEntityInto(x.newEntity(), t)
	rec := x.lastProbe[c]
	promote := x.mono && rec.valid && rec.ok && rec.seq == x.commitSeq && rec.key == fpKey(e)
	if promote {
		// The probe's converged values are the new committed system's
		// least fixed points; tags guard against later probes having
		// overwritten an entity's probe slot.
		e.warmR = rec.tentR
		x.promoteWarm(rec.probeSeq, x.sets[c].Entities)
		for _, ch := range x.chains {
			x.promoteWarm(rec.probeSeq, ch.ents)
		}
	}
	x.adoptEntity(e, c)
	x.commitSeq++
	if promote {
		x.verdicts[c] = fpVerdict{valid: true, ok: true, rev: x.revs[c], n: x.maxN, jGen: x.coreJGen[c]}
	} else {
		x.verdicts[c] = fpVerdict{}
	}
	hint, fits := pubUnknown, false
	if promote {
		hint, fits = pubAdmitted, true
	}
	if h, f, now := x.commitPub(hint, fits); now {
		x.publish(h, f)
	}
}

func (x *fpContext) AddSplit(sp *task.Split) {
	x.ensureNoPending("AddSplit")
	x.a.Splits = append(x.a.Splits, sp)
	x.sweepDisable()
	ch := x.newChain(sp)
	for i, e := range ch.ents {
		x.adoptEntity(e, ch.cores[i])
		x.verdicts[ch.cores[i]] = fpVerdict{}
	}
	x.chains = append(x.chains, ch)
	x.commitSeq++
	if h, f, now := x.commitPub(pubUnknown, false); now {
		x.publish(h, f)
	}
}

// dropEntity deletes the first entity on core c matching the
// predicate, recomputing the core's CacheMax (removal can lower it)
// and bumping its content revision. Copy-on-write: the committed
// slice may be shared with published snapshots.
func (x *fpContext) dropEntity(c int, match func(*Entity) bool) {
	s := x.sets[c]
	for i, e := range s.Entities {
		if match(e) {
			s.Entities = removeAtCOW(s.Entities, i)
			break
		}
	}
	x.markDirty(c)
	s.CacheMax = 0
	for _, e := range s.Entities {
		if d := x.m.Cache.MaxDelay(e.Task.WSS); d > s.CacheMax {
			s.CacheMax = d
		}
	}
	s.invalidateCosts()
	x.revs[c]++
}

// Remove deletes the task (whole placement or split chain) and
// invalidates whatever the shrink could have left overshooting.
// Removal is the only mutation under which committed warm-start
// values stop being lower bounds of the least fixed points — less
// interference, a smaller queue bound N, or smaller chain jitters
// all shrink response times — so warm state is reset: on the removed
// task's core always, and context-wide when chains exist or N
// dropped (chain jitters and the shared N couple every core).
// Entity order within each core is preserved, so decisions stay
// bit-identical to the stateless build of the shrunken assignment.
func (x *fpContext) Remove(id task.ID) bool {
	x.ensureNoPending("Remove")
	x.sweepDisable()
	oldMaxN := x.maxN
	removedSplit := false
	affected := -1
	found := false
search:
	for c := range x.a.Normal {
		for i, t := range x.a.Normal[c] {
			if t.ID == id {
				x.a.Normal[c] = removeAtCOW(x.a.Normal[c], i)
				x.dropEntity(c, func(e *Entity) bool {
					return e.Task.ID == id && !e.MigrIn && !e.MigrOut
				})
				affected = c
				found = true
				break search
			}
		}
	}
	if !found {
		for si, sp := range x.a.Splits {
			if sp.Task.ID != id {
				continue
			}
			x.a.Splits = removeAtCOW(x.a.Splits, si)
			for ci, ch := range x.chains {
				if ch.sp != sp {
					continue
				}
				for i, e := range ch.ents {
					ent := e
					x.dropEntity(ch.cores[i], func(o *Entity) bool { return o == ent })
				}
				x.chains = append(x.chains[:ci], x.chains[ci+1:]...)
				break
			}
			removedSplit = true
			found = true
			break
		}
	}
	if !found {
		return false
	}
	x.maxN = 0
	for _, s := range x.sets {
		if n := len(s.Entities); n > x.maxN {
			x.maxN = n
		}
	}
	x.commitSeq++
	if removedSplit || len(x.chains) > 0 || x.maxN != oldMaxN {
		// Chain jitters and the shared queue bound couple the cores:
		// reset warm state everywhere and force a fresh resolution.
		for d := range x.sets {
			for _, e := range x.sets[d].Entities {
				e.warmR, e.warmProbe, e.warmSeq = 0, 0, 0
			}
			x.verdicts[d] = fpVerdict{}
			x.markDirty(d) // published warm vectors must drop to the reset values
		}
		for _, ch := range x.chains {
			for _, e := range ch.ents {
				e.Jitter = 0
			}
		}
		x.resolveSeq = -1
		x.lastFailed = nil
	} else {
		// No chains and N unchanged: the removal is local to one core.
		for _, e := range x.sets[affected].Entities {
			e.warmR, e.warmProbe, e.warmSeq = 0, 0, 0
		}
		x.verdicts[affected] = fpVerdict{}
	}
	if h, f, now := x.commitPub(pubRemoved, false); now {
		x.publish(h, f)
	}
	return true
}

// EndGroup closes a group commit and publishes the committed state
// once — unless a held probe's tentative mutation is in the
// assignment, in which case the publish is deferred as a debt the
// probe's Commit or Rollback settles.
func (x *fpContext) EndGroup() {
	if h, f, now := x.endGroup(x.pend.kind != pendNone); now {
		x.publish(h, f)
	}
}

// removeAtCOW splices element i out into a fresh slice, leaving the
// input untouched. Every committed slice (entity sets, the
// assignment's task and split lists) is shared with published
// snapshots, so removal must never shift in place — all removal
// paths go through this one helper to keep that invariant in one
// place.
func removeAtCOW[T any](xs []T, i int) []T {
	out := make([]T, 0, len(xs)-1)
	out = append(out, xs[:i]...)
	return append(out, xs[i+1:]...)
}

func (x *fpContext) Schedulable() bool {
	x.ensureNoPending("Schedulable")
	x.stats.FullTests++
	for d := range x.sets {
		x.sets[d].N = x.maxN
	}
	failed := x.lastFailed
	if x.resolveSeq != x.commitSeq {
		jc := make(map[int]bool, 4)
		failed = x.resolve(x.sets, x.chains, jc)
		for d := range jc {
			x.jEpoch++
			x.coreJGen[d] = x.jEpoch
		}
		x.lastFailed = failed
		x.resolveSeq = x.commitSeq
	}
	if len(failed) > 0 {
		return false
	}
	for c := range x.sets {
		v := x.verdicts[c]
		if v.valid && v.rev == x.revs[c] && v.n == x.maxN && v.jGen == x.coreJGen[c] {
			x.stats.CoreTests++
			x.stats.VerdictHits++
			if !v.ok {
				return false
			}
			continue
		}
		// The committed full-core test is also a pure function of
		// (state, N): share it across contexts via the sweep memo.
		node := x.sweepNode(c)
		if node != nil {
			if sv, hit := x.sweep.lookup(node, x.maxN, sweepShape{flags: sweepCoreTest}); hit {
				x.stats.CoreTests++
				x.stats.VerdictHits++
				x.verdicts[c] = fpVerdict{valid: true, ok: sv, rev: x.revs[c], n: x.maxN, jGen: x.coreJGen[c]}
				if !sv {
					return false
				}
				continue
			}
		}
		ok := x.evalCore(x.sets[c], nil)
		if node != nil {
			x.sweep.store(node, x.maxN, sweepShape{flags: sweepCoreTest}, ok)
		}
		x.verdicts[c] = fpVerdict{valid: true, ok: ok, rev: x.revs[c], n: x.maxN, jGen: x.coreJGen[c]}
		if !ok {
			return false
		}
	}
	return true
}

// Reset rebinds the context to a new assignment and model, recycling
// every owned slab (see the Context interface contract). Sequence
// counters (commitSeq, probeSeq, jEpoch) keep running so stale
// tag-guarded records from before the Reset can never match.
func (x *fpContext) Reset(a *task.Assignment, m *overhead.Model) {
	x.ensureNoPending("Reset")
	m = overhead.Normalize(m)
	nc := a.NumCores
	if x.publishing.Load() || nc != len(x.sets) {
		// Committed slices and entities are shared with published
		// snapshots (or the core count changed): drop every slab and
		// start fresh. Old snapshots stay valid — they are
		// self-contained — and publication disengages until the next
		// Fork.
		x.publishing.Store(false)
		x.pub.Store(nil)
		x.sets = make([]*CoreSet, nc)
		for c := 0; c < nc; c++ {
			x.sets[c] = &CoreSet{}
		}
		x.revs = make([]int64, nc)
		x.coreJGen = make([]int64, nc)
		x.verdicts = make([]fpVerdict, nc)
		x.lastProbe = make([]fpProbeRecord, nc)
		x.views = make([]*CoreSet, nc)
		x.probeBuf = make([][]*Entity, nc)
		x.probeCS = make([]CoreSet, nc)
		x.snapDirty = make([]bool, nc)
		x.chains = nil
		x.entFree = nil
		x.chainFree = nil
	} else {
		// Fork was never called: no snapshot references the committed
		// slabs, so entities go back to the pool and the per-core sets
		// keep their capacity.
		for c := 0; c < nc; c++ {
			s := x.sets[c]
			x.entFree = append(x.entFree, s.Entities...)
			s.Entities = s.Entities[:0]
			s.N = 0
			s.CacheMax = 0
			s.invalidateCosts()
			x.revs[c]++ // recycled cores must never match old verdicts
			x.coreJGen[c] = 0
			x.verdicts[c] = fpVerdict{}
			x.lastProbe[c] = fpProbeRecord{}
			x.snapDirty[c] = false
		}
		// Chain entities were reclaimed with their host sets above;
		// recycle the chain headers alone.
		for _, ch := range x.chains {
			ch.sp = nil
			ch.ents = ch.ents[:0]
			ch.cores = ch.cores[:0]
			x.chainFree = append(x.chainFree, ch)
		}
		x.chains = x.chains[:0]
	}
	x.a = a
	x.m = m
	x.mono = modelMonotone(m)
	x.maxN = 0
	x.inProbe = false
	x.resolveSeq = -1
	x.lastFailed = nil
	x.pubHold, x.pubAny, x.pubOwed = false, false, false
	x.groupHint, x.groupFits = pubUnknown, false
	x.sweepOff = false
	if x.sweep != nil {
		if len(x.sweepNodes) != nc {
			x.sweepNodes = make([]*sweepNode, nc)
			x.sweepRevs = make([]int64, nc)
		}
		x.sweepInvalidate()
	}
	// Adopt whatever the new assignment already contains, mirroring
	// newFPContext over the recycled slabs.
	for c := 0; c < nc; c++ {
		for _, t := range a.Normal[c] {
			x.adoptEntity(newFPEntityInto(x.newEntity(), t), c)
		}
	}
	for _, sp := range a.Splits {
		x.sweepDisable()
		ch := x.newChain(sp)
		for i, e := range ch.ents {
			x.adoptEntity(e, ch.cores[i])
		}
		x.chains = append(x.chains, ch)
	}
}

// SetSweepCache attaches (or, with nil, detaches) the cross-context
// probe-verdict memo; committed state is interned lazily at the first
// consultation.
func (x *fpContext) SetSweepCache(sc *SweepCache) {
	x.sweep = sc
	if sc == nil {
		x.sweepNodes = nil
		x.sweepRevs = nil
		x.sweepOff = false
		return
	}
	if len(x.sweepNodes) != len(x.sets) {
		x.sweepNodes = make([]*sweepNode, len(x.sets))
		x.sweepRevs = make([]int64, len(x.sets))
	}
	x.sweepOff = len(x.chains) > 0
	x.sweepInvalidate()
}
