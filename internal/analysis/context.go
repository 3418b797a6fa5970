// Incremental admission contexts.
//
// The Section 4 evaluation is dominated by admission probes: every
// placement a packing loop tries is one CoreSchedulable call, and the
// stateless path rebuilds all per-core entity sets and re-runs every
// fixed point from a cold start per probe, even though consecutive
// probes differ by exactly one task placement. A Context makes the
// probe sequence stateful: it is created once per (assignment,
// overhead model), tracks which cores each mutation dirties (a split
// chain dirties every core in the chain), keeps the per-core entity
// sets built incrementally, and caches per-core verdicts keyed by
// (content revision, queue bound, jitter generation). It keeps no
// fixed point's value as the start of the next: a response time is
// solved from zero or its screen's lower bound, an EDF busy period
// from its cold start, on the writer, a snapshot and the oracle alike.
//
// A context does not evaluate probes itself. The one incremental
// engine (engine.go) does, over scratch views of the committed state,
// for the context and for the snapshots it publishes alike; the
// context is the owner that keeps the chain jitters a probe resolved
// when the probe is committed (context_fp.go), and drops them
// otherwise.
//
// # Decision identity
//
// A Context must answer every probe exactly as the stateless
// Analyzer.CoreSchedulable / Analyzer.Schedulable would on the same
// assignment state. Three mechanisms guarantee it:
//
//   - Every fixed point is the least one, and every iteration starts
//     where the oracle's does or at a bound every fixed point obeys
//     (the screens below), so it converges to that same point. The
//     one start carried across probes is the split chains' committed
//     jitters, which the next resolution starts from under a monotone
//     model: probes only ever extend the committed system (entities
//     are added, and every overhead term is nondecreasing in the
//     additions), and Remove resets them.
//   - The monotonicity argument needs queue-operation costs that do
//     not shrink as the queue bound N grows. Models are checked once
//     at context creation; a pathological (inverted) model resolves
//     every chain from zero jitters and derives no snapshot verdict
//     from a removal.
//   - The closed-form screens decide only from bounds every fixed point
//     obeys. Each entity of a fixed-priority core test meets rtaScreen
//     before its solve: with B its base, limit = D − J and, over its
//     interferers, U = Σc/T, L = Σc·J/T and N = Σc + L, ⌈x⌉ ≥ x gives
//     f(r) ≥ B + L + r·U and ⌈x⌉ < x + 1 gives f(r) < B + N + r·U. It
//     refuses when B + L + limit·U > limit (no fixed point at or below
//     limit), passes without a solve when B + N + limit·U ≤ limit
//     (f(limit) ≤ limit, so the least fixed point is at most limit),
//     and otherwise starts the solve from (B + L)/(1 − U), at or below
//     the least fixed point. Both inequalities keep a 1e-9 relative
//     margin for their float sums, and the start is rounded down past
//     the float error of U and dropped where U is too near 1 for it.
//     No iteration count enters a verdict: the solve (fpFixedPoint)
//     runs to the least fixed point or past the limit. A chain-free
//     whole-task probe computes the same sums from its core's table
//     (fpProbe.tableProbe), and screens the new task first, with the
//     interferers of period T ≥ D charged once in its base
//     (tableSlot.long): one release each is all they make in (0, D].
//     The screens are
//     fixed-priority only: the EDF test already screens utilization in
//     edfHorizon.
//
// The test suite enforces identity with randomized differential runs
// (see context_diff_test.go) and with SelfCheck, which shadows every
// context decision with the stateless computation.
package analysis

import (
	"fmt"
	"sync/atomic"

	"repro/api"
	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// Context is a stateful admission session over one evolving
// assignment under one overhead model. It owns all mutations of the
// assignment for its lifetime: partitioning loops place tasks and
// install splits through it, never on the assignment directly, so the
// context's caches stay coherent with the assignment.
//
// Probes follow a two-phase protocol: TryPlace/TrySplit mutate the
// assignment provisionally and return the admission verdict for the
// probed core; exactly one probe may be pending at a time and must be
// resolved with Commit (keep the mutation) or Rollback (undo it)
// before the next call. Place and AddSplit commit a mutation without
// probing, for placements the caller already knows are admissible
// (or that the final full test is meant to judge).
type Context interface {
	// Analyzer returns the analyzer whose test this context runs.
	Analyzer() Analyzer
	// Assignment returns the assignment the context is bound to.
	Assignment() *task.Assignment
	// TryPlace provisionally places t whole on core c and reports
	// whether the core still admits under the model.
	TryPlace(t *task.Task, c int) bool
	// TrySplit provisionally installs the split and reports whether
	// core c (which must host one of its parts, or be coupled to them)
	// still admits.
	TrySplit(sp *task.Split, c int) bool
	// Commit keeps the pending provisional mutation.
	Commit()
	// Rollback undoes the pending provisional mutation.
	Rollback()
	// Place commits t onto core c without probing.
	Place(t *task.Task, c int)
	// AddSplit commits the split without probing.
	AddSplit(sp *task.Split)
	// SplitHint estimates the largest budget sp's part on core c could
	// take with core c still admitting. sp is the tentative split a
	// TrySplit would probe, its part on c followed by a remainder; the
	// estimate holds every other entity's jitter and the queue bound at
	// what that probe resolves them to, and charges the part as a
	// non-final one. It is exact where no jitter on c depends on the
	// part's budget (chains that only run forward), and a guess
	// elsewhere: callers confirm it with probes. It leaves no pending
	// state. No probe may be pending.
	SplitHint(sp *task.Split, c int) timeq.Time
	// Remove deletes the task with the given ID — whole placement or
	// split — from the assignment and the context's incremental
	// state, reporting whether it was present. Removal is the one
	// mutation that shrinks the system, so the cached verdicts and
	// committed chain jitters it could leave stale are invalidated:
	// the removed task's core always, and the whole context whenever
	// split chains or the shared queue bound N are involved (see
	// DESIGN.md §3, "removal invalidation"). Decisions after a removal
	// remain bit-identical to the stateless analyzer on the shrunken
	// assignment. No probe may be pending.
	Remove(id task.ID) bool
	// Schedulable runs the full admission test on the committed
	// assignment — the finalize check — reusing every per-core verdict
	// that no mutation invalidated.
	Schedulable() bool
	// Reset rebinds the context to a new assignment (and model),
	// recycling every slab the context owns — entity pools, per-core
	// records and tables, verdict memos, probe scratch — instead of
	// reallocating, so one long-lived context serves an entire sweep of
	// task sets. It leaves the context exactly as
	// Analyzer().NewContext(a, m) would, minus the allocations; decision
	// identity is untouched because every cached value is invalidated or
	// re-tagged. Owner-only; no probe may be pending. Snapshots forked before the Reset stay valid (they are
	// self-contained); publication is disengaged until the next Fork.
	Reset(a *task.Assignment, m *overhead.Model)
	// Fork returns the latest published Snapshot of the committed
	// state: an immutable view any number of goroutines may probe
	// concurrently, lock-free. Publication is engaged by the first
	// Fork — which must therefore run on the owning goroutine (or
	// before any concurrent use, as admitd does at session creation);
	// contexts that never fork pay nothing. Once engaged, every
	// committed mutation (Commit, Place, AddSplit, Remove) publishes a
	// fresh snapshot — a fork taken between commits is the same
	// pointer — at O(cores), not O(tasks), thanks to the contexts'
	// copy-on-write state discipline. After the first call, Fork is a
	// single atomic load, safe from any goroutine at any time,
	// including while the owner probes or commits.
	Fork() Snapshot
	// BeginGroup opens a group commit: committed mutations between
	// BeginGroup and EndGroup apply to the context immediately (every
	// verdict is returned exactly as ungrouped) but publish no
	// snapshots; EndGroup publishes once, with the group's coalesced
	// derivation hint. Owner-only, like every mutation; groups do not
	// nest. Readers forked during the group simply keep the pre-group
	// snapshot — the same view they would race into between any two
	// ungrouped commits.
	BeginGroup()
	// EndGroup closes the group and publishes the committed state
	// once, if any mutation committed since BeginGroup. No probe may
	// be pending: a probe never outlives the call that resolves it.
	EndGroup()
	// ReadStats returns the admission counters accumulated by the
	// read path — probes served from forked snapshots — since
	// creation (or the last Flush). A Prober folds its probes' counters
	// in when it is closed. Safe to call concurrently.
	ReadStats() AdmissionStats
	// ReadCollector exposes the collector behind ReadStats — the sink
	// every snapshot Prober folds its counters into — so an
	// observability layer can attach an observer of each probe's
	// fixed-point work (Collector.SetFPObserver) without the context
	// knowing about it.
	ReadCollector() *Collector
	// CommitSeq returns the number of mutations committed since
	// creation — the sequence number the next published snapshot
	// carries (Snapshot.Seq). Owner-only, like Stats.
	CommitSeq() int64
	// Stats returns the counters accumulated by this context since
	// creation (or the last Flush).
	Stats() AdmissionStats
	// SetCollector attaches a per-context stats sink for Flush. A nil
	// collector detaches.
	SetCollector(*Collector)
	// Flush folds the context's counters into the attached Collector
	// (if any), then zeroes them locally.
	Flush()
}

// AdmissionStats counts admission work. Contexts accumulate them
// locally (uncontended) and Flush folds them into the attached
// Collector, so sweeps can report probe counts, cache hit rates and
// fixed-point effort.
type AdmissionStats struct {
	// Probes counts TryPlace + TrySplit calls; FullTests counts
	// Schedulable calls.
	Probes, FullTests int64
	// CoreTests counts single-core admission evaluations requested;
	// VerdictHits the subset a writer context's full test served from
	// its per-core verdict of the last test (fpVerdict). Probes never
	// hit: every one runs the engine.
	CoreTests, VerdictHits int64
	// FPSolves counts response-time fixed points solved, FPIterations
	// the iterations they took, WarmStarts the solves a screen started
	// above zero (rtaScreen's lower bound of the least fixed point).
	FPSolves, FPIterations, WarmStarts int64
	// DemandTests counts EDF processor-demand tests the engine ran,
	// DemandPoints the absolute deadlines at which they evaluated the
	// demand (a test one of the screens rejects looks at none).
	DemandTests, DemandPoints int64
}

// Add returns s + o, for folding read-path counters into a view.
func (s AdmissionStats) Add(o AdmissionStats) AdmissionStats {
	return AdmissionStats{
		Probes:       s.Probes + o.Probes,
		FullTests:    s.FullTests + o.FullTests,
		CoreTests:    s.CoreTests + o.CoreTests,
		VerdictHits:  s.VerdictHits + o.VerdictHits,
		FPSolves:     s.FPSolves + o.FPSolves,
		FPIterations: s.FPIterations + o.FPIterations,
		WarmStarts:   s.WarmStarts + o.WarmStarts,
		DemandTests:  s.DemandTests + o.DemandTests,
		DemandPoints: s.DemandPoints + o.DemandPoints,
	}
}

// Sub returns s − o, for before/after snapshots around a sweep.
func (s AdmissionStats) Sub(o AdmissionStats) AdmissionStats {
	return AdmissionStats{
		Probes:       s.Probes - o.Probes,
		FullTests:    s.FullTests - o.FullTests,
		CoreTests:    s.CoreTests - o.CoreTests,
		VerdictHits:  s.VerdictHits - o.VerdictHits,
		FPSolves:     s.FPSolves - o.FPSolves,
		FPIterations: s.FPIterations - o.FPIterations,
		WarmStarts:   s.WarmStarts - o.WarmStarts,
		DemandTests:  s.DemandTests - o.DemandTests,
		DemandPoints: s.DemandPoints - o.DemandPoints,
	}
}

// CacheHitRate is the fraction of core evaluations served from the
// verdict cache.
func (s AdmissionStats) CacheHitRate() float64 {
	if s.CoreTests == 0 {
		return 0
	}
	return float64(s.VerdictHits) / float64(s.CoreTests)
}

// MeanFPIterations is the mean fixed-point iteration count per
// response-time solve.
func (s AdmissionStats) MeanFPIterations() float64 {
	if s.FPSolves == 0 {
		return 0
	}
	return float64(s.FPIterations) / float64(s.FPSolves)
}

// WarmStartRate is the fraction of solves a screen started above zero.
func (s AdmissionStats) WarmStartRate() float64 {
	if s.FPSolves == 0 {
		return 0
	}
	return float64(s.WarmStarts) / float64(s.FPSolves)
}

// MeanDemandPoints is the mean number of deadlines an EDF demand test
// evaluated the demand at.
func (s AdmissionStats) MeanDemandPoints() float64 {
	if s.DemandTests == 0 {
		return 0
	}
	return float64(s.DemandPoints) / float64(s.DemandTests)
}

// Wire converts the counters to their wire form, with the derived
// rates precomputed so consumers need no formulas. The daemon's stats
// and audit responses and spexp's JSON sweep result share it.
func (s AdmissionStats) Wire() api.AdmissionStats {
	return api.AdmissionStats{
		Probes:           s.Probes,
		FullTests:        s.FullTests,
		CoreTests:        s.CoreTests,
		VerdictHits:      s.VerdictHits,
		FPSolves:         s.FPSolves,
		FPIterations:     s.FPIterations,
		WarmStarts:       s.WarmStarts,
		CacheHitRate:     s.CacheHitRate(),
		MeanFPIterations: s.MeanFPIterations(),
		WarmStartRate:    s.WarmStartRate(),
	}
}

// String renders the counters compactly for CLI/bench reporting.
func (s AdmissionStats) String() string {
	return fmt.Sprintf("probes=%d full=%d core-tests=%d cache-hits=%.1f%% fp-iters/solve=%.2f warm=%.1f%% demand-points/test=%.2f",
		s.Probes, s.FullTests, s.CoreTests, 100*s.CacheHitRate(), s.MeanFPIterations(), 100*s.WarmStartRate(), s.MeanDemandPoints())
}

// Collector accumulates AdmissionStats from many contexts atomically.
// Each consumer of admission statistics owns its own Collector — a
// sweep, an admission-control session, a benchmark — and attaches it
// to the contexts whose work it wants scoped (Context.SetCollector),
// so concurrent consumers in one process never see each other's work.
type Collector struct {
	probes, fullTests, coreTests, verdictHits, fpSolves, fpIterations, warmStarts atomic.Int64

	// fpObs, when set, observes every contribution that carried
	// fixed-point solves — the telemetry plane's hook for a live
	// iteration histogram, at per-Add grain, and per probe on the read
	// path, whose Probers fold their counters at Close. Atomic pointer:
	// SetFPObserver may race Adds.
	fpObs atomic.Pointer[func(iterations, solves int64)]

	// Written by EDF contributions only (see Add); last, so the words
	// every fixed-priority fold touches stay together.
	demandTests, demandPoints atomic.Int64
}

// SetFPObserver attaches fn to every subsequent Add, and every
// snapshot probe, that carries fixed-point solves (nil detaches). fn
// must be lock-free and allocation-free: it runs inline on the read
// path.
func (c *Collector) SetFPObserver(fn func(iterations, solves int64)) {
	if fn == nil {
		c.fpObs.Store(nil)
		return
	}
	c.fpObs.Store(&fn)
}

// Add folds s into the collector and shows its fixed-point work to the
// observer.
func (c *Collector) Add(s AdmissionStats) {
	c.fold(s)
	c.observe(s.FPIterations, s.FPSolves)
}

// fold adds s's counters without observing them. It adds only the
// nonzero ones: a read probe carries no full test and no verdict hit,
// one its screens decide no solve, and fixed-priority traffic no demand
// test, and each skipped counter is an atomic read-modify-write saved.
func (c *Collector) fold(s AdmissionStats) {
	addNonzero(&c.probes, s.Probes)
	addNonzero(&c.fullTests, s.FullTests)
	addNonzero(&c.coreTests, s.CoreTests)
	addNonzero(&c.verdictHits, s.VerdictHits)
	addNonzero(&c.fpSolves, s.FPSolves)
	addNonzero(&c.fpIterations, s.FPIterations)
	addNonzero(&c.warmStarts, s.WarmStarts)
	addNonzero(&c.demandTests, s.DemandTests)
	addNonzero(&c.demandPoints, s.DemandPoints)
}

// observe passes one contribution's fixed-point work to the observer,
// if it solved any and one is attached.
func (c *Collector) observe(iterations, solves int64) {
	if solves > 0 {
		if f := c.fpObs.Load(); f != nil {
			(*f)(iterations, solves)
		}
	}
}

func addNonzero(a *atomic.Int64, v int64) {
	if v != 0 {
		a.Add(v)
	}
}

// Snapshot returns the totals folded in so far.
func (c *Collector) Snapshot() AdmissionStats {
	return AdmissionStats{
		Probes:       c.probes.Load(),
		FullTests:    c.fullTests.Load(),
		CoreTests:    c.coreTests.Load(),
		VerdictHits:  c.verdictHits.Load(),
		FPSolves:     c.fpSolves.Load(),
		FPIterations: c.fpIterations.Load(),
		WarmStarts:   c.warmStarts.Load(),
		DemandTests:  c.demandTests.Load(),
		DemandPoints: c.demandPoints.Load(),
	}
}

// Drain atomically moves the totals out of the collector, returning
// them and leaving it zeroed. Concurrent Adds are never lost — they
// land either in the returned stats or in the zeroed collector.
func (c *Collector) Drain() AdmissionStats {
	return AdmissionStats{
		Probes:       c.probes.Swap(0),
		FullTests:    c.fullTests.Swap(0),
		CoreTests:    c.coreTests.Swap(0),
		VerdictHits:  c.verdictHits.Swap(0),
		FPSolves:     c.fpSolves.Swap(0),
		FPIterations: c.fpIterations.Swap(0),
		WarmStarts:   c.warmStarts.Swap(0),
		DemandTests:  c.demandTests.Swap(0),
		DemandPoints: c.demandPoints.Swap(0),
	}
}

// modelMonotone reports whether every effective queue-operation cost
// (remote penalty applied) is nondecreasing in the queue bound N.
// Entity additions then only ever grow every overhead term, which two
// things rely on: the split-chain resolution starting from the
// committed jitters (fpProbe.resolve), and a snapshot deriving a
// schedulable verdict across a removal (snapView.deriveSched).
//
// Local and remote anchor costs are piecewise linear in log2(N), so
// anchor order (N64 ≥ N4) makes each nondecreasing. A scaling remote
// penalty (p ∉ {0, 1}) amplifies the remote−local gap, whose
// *rounded* per-N values are not monotone even when the anchor gaps
// are (each interpolant rounds to integer nanoseconds independently,
// so the gap can dip by a tick as N grows) — any scaled penalty is
// therefore treated as non-monotone outright. The remote-penalty
// ablations (p = 2, 4, 8) thus resolve chains from zero jitters,
// which is correct, just slower. The shipped models at p = 1 (Zero,
// PaperModel, and anything measured on a real log-time queue) are
// monotone; any model failing the check disables both but keeps
// decisions bit-identical.
func modelMonotone(m *overhead.Model) bool {
	p := m.RemotePenalty
	if p != 0 && p != 1 {
		return false
	}
	for op := range m.Queues.LocalN4 {
		if m.Queues.LocalN64[op] < m.Queues.LocalN4[op] {
			return false
		}
		if m.Queues.RemoteN64[op] < m.Queues.RemoteN4[op] {
			return false
		}
	}
	return true
}

// ctxBase is the policy-independent half of both writer contexts: the
// committed state in the shape it is published in, the one pending
// probe, publication and group commit, and the entity pool. Its fields
// and methods are promoted by embedding.
type ctxBase struct {
	an    Analyzer
	a     *task.Assignment
	m     *overhead.Model
	mono  bool
	stats AdmissionStats
	coll  *Collector // optional per-context sink (SetCollector)

	// Committed state (see coreRec): per-core records, the split chains
	// (fixed priorities only) and per-core verdicts of the last test.
	cores    []coreRec
	chains   []fpSnapChain
	verdicts []fpVerdict
	pend     pending

	// readStats accumulates the read path's counters: probes served
	// from forked snapshots fold their work here atomically. Flush
	// drains it alongside the writer-side stats.
	readStats Collector

	// publishing is engaged by the first Fork: until then committed
	// mutations skip snapshot publication entirely and install in
	// place, so fork-free consumers (the partitioners' packing loops,
	// the sweep pipeline) pay nothing for the read path. pub holds the
	// latest published snapshot, swapped atomically on every committed
	// mutation.
	publishing atomic.Bool
	pub        atomic.Pointer[snapState]

	// Group-commit state (owner-only): between BeginGroup and
	// EndGroup, pubHold defers snapshot publication; pubAny records
	// whether any mutation committed, and groupHint/groupFits carry
	// the coalesced derivation hint EndGroup publishes with.
	pubHold   bool
	pubAny    bool
	groupHint pubHint
	groupFits bool

	maxN      int   // committed MaxTasksPerCore
	commitSeq int64 // bumped on every committed mutation

	// pool holds reclaimed entities — only ever ones no published
	// snapshot can reference (rolled-back split probes, and committed
	// entities of a context that never engaged publication).
	pool entPool
}

// fpVerdict caches one core's last admission verdict, keyed by the
// content revision, queue bound and (fixed priorities) jitter
// generation it was computed under.
type fpVerdict struct {
	valid bool
	ok    bool
	rev   int64
	n     int
	jGen  int64
}

const (
	pendNone = iota
	pendPlace
	pendSplit
)

// pending is the one in-flight provisional mutation.
type pending struct {
	kind     int
	core     int // the probed core
	fits     bool
	n        int       // the probe state's queue bound
	addEnts  []*Entity // tentative entities
	addCores []int     // their host cores (parallel)

	resolved bool // FP: a jitter resolution ran
}

func newCtxBase(an Analyzer, a *task.Assignment, m *overhead.Model) ctxBase {
	nc := a.NumCores
	return ctxBase{
		an: an, a: a, m: m, mono: modelMonotone(m),
		cores:    make([]coreRec, nc),
		verdicts: make([]fpVerdict, nc),
	}
}

func (b *ctxBase) Analyzer() Analyzer           { return b.an }
func (b *ctxBase) Assignment() *task.Assignment { return b.a }
func (b *ctxBase) Stats() AdmissionStats        { return b.stats }
func (b *ctxBase) ReadStats() AdmissionStats    { return b.readStats.Snapshot() }
func (b *ctxBase) ReadCollector() *Collector    { return &b.readStats }
func (b *ctxBase) CommitSeq() int64             { return b.commitSeq }
func (b *ctxBase) SetCollector(c *Collector)    { b.coll = c }

func (b *ctxBase) Flush() {
	s := b.stats.Add(b.readStats.Drain())
	if b.coll != nil {
		b.coll.Add(s)
	}
	b.stats = AdmissionStats{}
}

// ensureNoPending panics when a probe is pending: contexts allow
// exactly one provisional mutation at a time.
func (b *ctxBase) ensureNoPending(op string) {
	if b.pend.kind != pendNone {
		panic(fmt.Sprintf("analysis: %s with an unresolved probe pending (Commit or Rollback first)", op))
	}
}

// own returns core c's record with its entity slice and table safe to
// write in place. A record a published snapshot references (shared)
// gets private copies first; the next publish shares them again. A
// context that never forked owns every record already. grow says the
// caller is about to insert: the copies then get room for a few
// entries, so a group of commits onto one core copies it once.
func (b *ctxBase) own(c int, grow bool) *coreRec {
	r := &b.cores[c]
	if r.shared {
		n := len(r.ents)
		if grow {
			n += 4
		}
		r.ents = append(make([]*Entity, 0, n), r.ents...)
		if r.tab != nil {
			r.tab = append(make([]fpRow, 0, n), r.tab...)
		}
		r.shared = false
	}
	return r
}

// adopted is the bookkeeping of one more committed entity on r.
func (b *ctxBase) adopted(r *coreRec, e *Entity) {
	if d := b.m.Cache.MaxDelay(e.Task.WSS); d > r.cacheMax {
		r.cacheMax = d
	}
	if n := len(r.ents); n > b.maxN {
		b.maxN = n
	}
	r.rev++
}

// dropped is the bookkeeping of an entity removed from r: CacheMax may
// shrink.
func (b *ctxBase) dropped(r *coreRec) {
	r.cacheMax = 0
	for _, e := range r.ents {
		if d := b.m.Cache.MaxDelay(e.Task.WSS); d > r.cacheMax {
			r.cacheMax = d
		}
	}
	r.rev++
}

// removed recomputes the committed queue bound after a removal and
// counts the mutation; it reports whether the bound dropped.
func (b *ctxBase) removed() bool {
	old := b.maxN
	b.maxN = 0
	for c := range b.cores {
		if n := len(b.cores[c].ents); n > b.maxN {
			b.maxN = n
		}
	}
	b.commitSeq++
	return b.maxN != old
}

// rebind is the policy-independent half of Reset: it rebinds the
// context to a and m and empties the committed state, reporting
// whether the slabs had to be dropped rather than recycled — the
// committed slices and entities are shared with published snapshots,
// or the core count changed. Old snapshots stay valid (they are
// self-contained) and publication disengages until the next Fork.
// Otherwise Fork was never called: no snapshot references the slabs,
// so entities go back to the pool and the records keep their capacity.
func (b *ctxBase) rebind(a *task.Assignment, m *overhead.Model) (fresh bool) {
	b.ensureNoPending("Reset")
	nc := a.NumCores
	fresh = b.publishing.Load() || nc != len(b.cores)
	if fresh {
		b.publishing.Store(false)
		b.pub.Store(nil)
		b.cores = make([]coreRec, nc)
		b.verdicts = make([]fpVerdict, nc)
		b.chains = nil
		b.pool = entPool{}
	} else {
		for c := range b.cores {
			r := &b.cores[c]
			b.pool.put(r.ents...)
			// rev keeps counting: recycled cores must never match old
			// verdicts.
			*r = coreRec{ents: r.ents[:0], tab: r.tab[:0], rev: r.rev + 1}
			b.verdicts[c] = fpVerdict{}
		}
		b.chains = b.chains[:0]
	}
	b.a = a
	b.m = overhead.Normalize(m)
	b.mono = modelMonotone(b.m)
	b.maxN = 0
	b.pubHold, b.pubAny = false, false
	b.groupHint, b.groupFits = pubUnknown, false
	return fresh
}

// fork returns the latest published snapshot. The first call engages
// publication (and must run on the owning goroutine — see the
// interface contract); afterwards it is a lock-free atomic load from
// any goroutine. Contexts that never fork never publish.
func (b *ctxBase) fork() *snapState {
	if !b.publishing.Load() {
		b.publish(pubUnknown, false)
		b.publishing.Store(true)
	}
	return b.pub.Load()
}

// publish atomically installs a fresh snapshot of the committed state:
// an O(cores) copy of the records. Runs on the owner after every
// committed mutation once forking is engaged. Under fixed priorities it
// first brings every record's table up to date — only a record a
// mutation took private can be stale — so readers never build one.
// Every record is shared from then on, until a mutation takes it
// private (own).
func (b *ctxBase) publish(hint pubHint, fits bool) {
	prev := b.pub.Load()
	s := &snapState{cores: make([]coreRec, len(b.cores)), chains: b.chains[:len(b.chains):len(b.chains)]}
	s.captureView(b, b.commitSeq)
	s.maxN = b.maxN
	var pv *snapView
	if prev != nil {
		pv = &prev.snapView
	}
	fp := b.an.Policy() == task.FixedPriority
	for c := range b.cores {
		if fp {
			b.cores[c].ensureTable()
		}
		b.cores[c].shared = true
	}
	copy(s.cores, b.cores)
	s.deriveSched(pv, hint, fits, len(b.chains) > 0)
	b.pub.Store(s)
}

// cachedVerdict serves core c's committed full-core test from the
// context's own verdict when no mutation invalidated it, counting the
// hit. jGen is the core's jitter generation (0 under EDF).
func (b *ctxBase) cachedVerdict(c int, jGen int64) (ok, hit bool) {
	v := b.verdicts[c]
	if !v.valid || v.rev != b.cores[c].rev || v.n != b.maxN || v.jGen != jGen {
		return false, false
	}
	b.stats.CoreTests++
	b.stats.VerdictHits++
	return v.ok, true
}

// setVerdict records core c's computed full-core verdict.
func (b *ctxBase) setVerdict(c int, jGen int64, ok bool) {
	b.verdicts[c] = fpVerdict{valid: true, ok: ok, rev: b.cores[c].rev, n: b.maxN, jGen: jGen}
}

// BeginGroup opens a group commit (see the interface contract).
func (b *ctxBase) BeginGroup() {
	if b.pubHold {
		panic("analysis: BeginGroup inside an open group (groups do not nest)")
	}
	b.pubHold = true
}

// EndGroup closes a group commit and publishes the committed state
// once.
func (b *ctxBase) EndGroup() {
	if !b.pubHold {
		panic("analysis: EndGroup without BeginGroup")
	}
	b.ensureNoPending("EndGroup")
	b.pubHold = false
	if b.pubAny && b.publishing.Load() {
		b.publish(b.groupHint, b.groupFits)
	}
	b.pubAny = false
}

// committed is called by the concrete contexts after every committed
// mutation with that mutation's derivation hint. Outside a group it
// publishes, once publication is engaged; inside a group the hint is
// coalesced and publication deferred to EndGroup.
func (b *ctxBase) committed(hint pubHint, fits bool) {
	if !b.publishing.Load() {
		return
	}
	if !b.pubHold {
		b.publish(hint, fits)
		return
	}
	// Coalesce: the one publish at EndGroup must derive only what a
	// chain of per-mutation derivations could. Two shapes chain:
	// admitted whole-task placements that all fit (the committed
	// queue bound is nondecreasing across them, so deriveSched's
	// end-vs-start maxN comparison subsumes every per-step one), and
	// pure removals (each preserves schedulability under a monotone
	// model). Any mix, a failed fit, or a hint deriveSched ignores
	// falls back to pubUnknown — always sound: the full-test verdict
	// is simply recomputed lazily by the first reader that asks.
	switch {
	case !b.pubAny:
		b.pubAny = true
		b.groupHint, b.groupFits = hint, fits
	case b.groupHint == pubAdmitted && b.groupFits && hint == pubAdmitted && fits:
		// still all-admitted, all-fitting
	case b.groupHint == pubRemoved && hint == pubRemoved:
		// still all-removals
	default:
		b.groupHint, b.groupFits = pubUnknown, false
	}
}

// SelfCheck, when true, wraps every new Context so each decision is
// shadowed by the stateless Analyzer computation on the same
// assignment state; a divergence panics with both verdicts. It exists
// for the differential test suite and costs a full stateless
// evaluation per probe — never enable it outside tests.
var SelfCheck bool

// wrapChecked applies the SelfCheck shadow when enabled; m is the
// normalized model the context was bound to.
func wrapChecked(ctx Context, m *overhead.Model) Context {
	if SelfCheck {
		return &checkedContext{Context: ctx, m: m}
	}
	return ctx
}

// checkedContext shadows a real context with the stateless path. It
// embeds the context the way checkedSnapshot embeds its Snapshot and
// overrides only the decisions, Fork (so snapshots are shadowed too)
// and Reset (so the shadow follows the rebound model).
type checkedContext struct {
	Context
	m *overhead.Model
}

// Fork wraps the inner snapshot so forked decisions are shadowed by
// the stateless analyzer too.
func (cc *checkedContext) Fork() Snapshot {
	return &checkedSnapshot{Snapshot: cc.Context.Fork(), m: cc.m}
}

func (cc *checkedContext) Reset(a *task.Assignment, m *overhead.Model) {
	cc.Context.Reset(a, m)
	cc.m = overhead.Normalize(m) // mirror the concrete Reset's normalization
}

func (cc *checkedContext) TryPlace(t *task.Task, c int) bool {
	got := cc.Context.TryPlace(t, c)
	// The inner context has applied the provisional mutation, so the
	// stateless probe sees the identical assignment state.
	want := cc.Analyzer().CoreSchedulable(cc.Assignment(), c, cc.m)
	if got != want {
		panic(fmt.Sprintf("analysis: context TryPlace(%v, core %d) = %v, stateless CoreSchedulable = %v", t, c, got, want))
	}
	return got
}

func (cc *checkedContext) TrySplit(sp *task.Split, c int) bool {
	got := cc.Context.TrySplit(sp, c)
	want := cc.Analyzer().CoreSchedulable(cc.Assignment(), c, cc.m)
	if got != want {
		panic(fmt.Sprintf("analysis: context TrySplit(%v, core %d) = %v, stateless CoreSchedulable = %v", sp.Task, c, got, want))
	}
	return got
}

func (cc *checkedContext) Schedulable() bool {
	got := cc.Context.Schedulable()
	want := cc.Analyzer().Schedulable(cc.Assignment(), cc.m)
	if got != want {
		panic(fmt.Sprintf("analysis: context Schedulable = %v, stateless Schedulable = %v", got, want))
	}
	return got
}
