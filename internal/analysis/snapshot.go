// Published admission snapshots: the lock-free concurrent read path of
// the analysis layer.
//
// A Context serializes every mutation behind one owner goroutine, so
// a service front-ending it (admitd) could only ever answer as fast
// as that single goroutine. Admission workloads are overwhelmingly
// read probes — "would this task fit right now?" — punctuated by
// rare commits, which is exactly the shape read-copy-update exploits:
// the owner publishes an immutable Snapshot of the committed state on
// every committed mutation, and any number of goroutines probe the
// latest snapshot concurrently, without locks and without entering
// the owner's serialization.
//
// # One engine, two owners
//
// A snapshot is the second owner of committed state (the writer
// context is the first) and holds it in the same shape: a copy, by
// value, of the writer's per-core records and of its chain list
// (ctxBase.publish) — O(cores) slice headers, not O(tasks) entities.
// It has no evaluator of its own. A Prober binds pooled scratch to
// the snapshot and runs the probe engine of engine.go over it — the
// fillView, fpEvalCore, resolve and edfEvalProbe a writer probe runs —
// and then drops the views the writer would have installed.
//
// # Why sharing is safe
//
// Committed entities are immutable. Warm values live in the records'
// vectors, and a probe copies a vector into its view before any solve
// writes it; chain jitters are baked into the committed chain
// entities, and a probe that resolves jitters moves those of its own
// clones. The slices a snapshot shares with the writer are never
// written in place while a snapshot references them (ctxBase.own),
// and the assignment's task and split lists are only ever replaced,
// or appended to beyond every published length.
//
// # Decision identity
//
// Snapshot verdicts are bit-identical to the stateless Analyzer on
// the snapshot's assignment, by the same arguments as the owning
// Context: warm starts are converged values of the committed system,
// which a probe only extends (monotone fixed points converge to the
// same least fixed point from any value at or below it), and
// non-monotone overhead models disable warm starts entirely. The
// fork differential and racing fuzz tests enforce this.
package analysis

import (
	"sync"
	"sync/atomic"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// Snapshot is an immutable, concurrently shareable view of a
// Context's committed state. All methods are safe to call from any
// number of goroutines; none of them mutate the owning context or
// the snapshot. Probes answer exactly as the stateless Analyzer
// would on the snapshot's assignment.
type Snapshot interface {
	// Analyzer returns the analyzer whose test this snapshot runs.
	Analyzer() Analyzer
	// Seq is the committed-mutation sequence number the snapshot was
	// published at; two forks with equal Seq are the same snapshot.
	Seq() int64
	// NumCores returns the assignment's core count.
	NumCores() int
	// NumTasks returns the number of committed tasks (whole + split).
	NumTasks() int
	// TryPlace reports whether core c would still admit t, without
	// changing any state.
	TryPlace(t *task.Task, c int) bool
	// TrySplit reports whether core c would still admit with the
	// split installed, without changing any state.
	TrySplit(sp *task.Split, c int) bool
	// Prober returns a probe evaluator bound to this snapshot that
	// answers exactly like TryPlace/TrySplit but pins one set of
	// goroutine-local scratch across calls, so a batch of K probes
	// runs without per-probe pool traffic. A Prober is not safe for
	// concurrent use; Close returns the scratch (the snapshot itself
	// remains valid).
	Prober() Prober
	// Schedulable runs the full admission test on the committed
	// state. It is computed at most once per snapshot and cached.
	Schedulable() bool
	// RangeTasks calls f for every committed whole-task placement.
	RangeTasks(f func(t *task.Task, core int))
	// RangeSplits calls f for every committed split.
	RangeSplits(f func(sp *task.Split))
	// CoreUtilization returns the committed per-core budget
	// utilizations (freshly allocated; the caller owns it).
	CoreUtilization() []float64
	// CloneAssignment materializes a private copy of the committed
	// assignment: fresh per-core and split slices sharing the
	// immutable task/split objects. Safe to mutate and analyze with
	// the stateless Analyzer (the differential tests replay snapshot
	// verdicts through it).
	CloneAssignment() *task.Assignment
	// Stats returns the owning context's writer-side admission
	// counters as of publication. Read-side work is accounted
	// separately (Context.ReadStats).
	Stats() AdmissionStats
}

// snapView is the assignment view and bookkeeping shared by both
// concrete snapshots.
type snapView struct {
	an     Analyzer
	m      *overhead.Model
	mono   bool
	seq    int64
	ncores int
	maxN   int

	normal [][]*task.Task // committed per-core task lists (immutable)
	splits []*task.Split  // committed splits (immutable)

	stats AdmissionStats
	rs    *Collector // read-side counters, shared with the owning context

	// The full-test verdict: derived by the publisher when the
	// mutation allows it (see deriveSched), otherwise computed at most
	// once by the first reader that asks. schedDone is set after
	// schedOK is, so a true load of schedDone makes schedOK safe to
	// read from any goroutine.
	schedOnce sync.Once
	schedOK   bool
	schedDone atomic.Bool
}

// pubHint tells the publisher what the committed mutation was, so the
// new snapshot can inherit the full-test verdict instead of leaving
// it to a reader's lazy recomputation.
type pubHint int

const (
	// pubUnknown derives nothing (splits, unprobed placements,
	// restores).
	pubUnknown pubHint = iota
	// pubAdmitted is a committed whole-task probe with a known
	// verdict.
	pubAdmitted
	// pubRemoved is a committed removal.
	pubRemoved
)

// deriveSched inherits the full-test verdict across one committed
// mutation when that is sound:
//
//   - A whole-task commit with no split chains: the cores are
//     decoupled except through the shared queue bound N, so if N did
//     not change, every other core's test is literally unchanged and
//     the new core's verdict is the probe's. A failing probe makes
//     the whole state unschedulable regardless of N.
//   - A removal under a monotone model: shrinking the system only
//     shrinks every interference, blocking and queue-cost term, so a
//     schedulable state stays schedulable.
//
// Anything else leaves the verdict to the lazy reader-side compute.
func (v *snapView) deriveSched(prev *snapView, hint pubHint, fits, chains bool) {
	know := func(ok bool) {
		v.schedOK = ok
		v.schedDone.Store(true)
	}
	switch hint {
	case pubAdmitted:
		if chains {
			return
		}
		if !fits {
			know(false)
			return
		}
		if prev != nil && prev.schedDone.Load() && v.maxN == prev.maxN {
			know(prev.schedOK)
		}
	case pubRemoved:
		if v.mono && prev != nil && prev.schedDone.Load() && prev.schedOK {
			know(true)
		}
	}
}

func (v *snapView) Analyzer() Analyzer    { return v.an }
func (v *snapView) Seq() int64            { return v.seq }
func (v *snapView) NumCores() int         { return v.ncores }
func (v *snapView) Stats() AdmissionStats { return v.stats }

func (v *snapView) NumTasks() int {
	n := len(v.splits)
	for _, ts := range v.normal {
		n += len(ts)
	}
	return n
}

func (v *snapView) RangeTasks(f func(t *task.Task, core int)) {
	for c, ts := range v.normal {
		for _, t := range ts {
			f(t, c)
		}
	}
}

func (v *snapView) RangeSplits(f func(sp *task.Split)) {
	for _, sp := range v.splits {
		f(sp)
	}
}

func (v *snapView) CoreUtilization() []float64 {
	u := make([]float64, v.ncores)
	for c, ts := range v.normal {
		for _, t := range ts {
			u[c] += t.Utilization()
		}
	}
	for _, sp := range v.splits {
		for _, p := range sp.Parts {
			u[p.Core] += float64(p.Budget) / float64(sp.Task.Period)
		}
	}
	return u
}

func (v *snapView) CloneAssignment() *task.Assignment {
	a := task.NewAssignment(v.ncores)
	a.Policy = v.an.Policy()
	for c, ts := range v.normal {
		a.Normal[c] = append([]*task.Task(nil), ts...)
	}
	a.Splits = append([]*task.Split(nil), v.splits...)
	return a
}

// captureView fills the shared view fields from a context's committed
// state; runs on the owner.
func (v *snapView) captureView(b *ctxBase, seq int64) {
	v.an, v.m, v.mono = b.an, b.m, b.mono
	v.seq = seq
	v.ncores = b.a.NumCores
	if v.normal == nil {
		v.normal = make([][]*task.Task, v.ncores)
	}
	copy(v.normal, b.a.Normal)
	v.splits = b.a.Splits[:len(b.a.Splits):len(b.a.Splits)]
	v.stats = b.stats
	v.rs = &b.readStats
}

// --- probe verdict memoization ---------------------------------------

// probeKey identifies a whole-task probe up to everything its verdict
// depends on besides the (immutable) core state: the task's analysis
// parameters. Two tasks with equal parameters get identical verdicts
// on the same snapshot core — admission is a pure function — so the
// verdict can be memoized. This is an optimization only immutability
// makes trivially correct: the mutable context would need
// invalidation bookkeeping on every commit, the snapshot's cache
// simply lives as long as the core record's contents (see
// ctxBase.publish).
type probeKey struct {
	c, t, d timeq.Time
	prio    int
	wss     int64
}

func probeKeyOf(t *task.Task) probeKey {
	return probeKey{c: t.WCET, t: t.Period, d: t.EffectiveDeadline(), prio: t.Priority, wss: t.WSS}
}

// probeCache memoizes per-core whole-task probe verdicts. It is
// shared by every goroutine probing the snapshot, and carried over to
// the next snapshot for cores whose published record (and the global
// queue bound) did not change — repeated admission tries of the same
// task shapes, the bread and butter of admission control traffic,
// then cost a hash lookup.
//
// A memo only pays where shapes repeat, so every record starts on a
// trial: it earns its memo with its probeTrialHits-th lookup hit, and
// a record that takes probeTrialInserts inserts first retires — its
// table is released, and every later lookup and store returns before
// hashing or locking. Traffic whose task parameters are unique per
// request would otherwise pay a mutex, a cold table line and a table
// grown to probeCacheCap entries (16384 slots, ≈0.75 MB) per core
// record for a hit ratio of zero. A record that passes keeps its memo
// for life and stops counting; it is bounded by probeCacheCap.
// Retirement is a property of the record: carried over to the next
// snapshot it stays retired, and the fresh record of a dirtied core
// starts a fresh trial.
//
// The cache is an insert-only open-addressing hash table tuned for
// the read path: a lookup is linear probing over a published slot
// array with one atomic load per slot and zero allocations (a
// sync.Map here would box the struct key on every Load — one heap
// allocation per probe on the hottest path in the system). Writers
// run on the miss path, which just paid a full admission solve, so
// they simply serialize on a mutex; each entry becomes visible
// through a release store of its slot state that reader acquire
// loads observe, and nothing is ever deleted or moved within a
// table, so a reader either finds a fully published entry or stops
// at an empty slot and reports a miss.
type probeCache struct {
	tab   atomic.Pointer[probeTable]
	state atomic.Uint32 // memoTrial, memoKept or memoRetired
	hits  atomic.Int64  // lookup hits, counted during the trial only
	mu    sync.Mutex    // serializes store, growth and retirement
}

type probeTable struct {
	slots []probeSlot // power-of-two length
	used  int         // completed inserts; guarded by probeCache.mu
}

type probeSlot struct {
	state   atomic.Uint32 // slotEmpty or slotReady
	verdict bool
	key     probeKey
}

const (
	slotEmpty uint32 = iota
	slotReady
)

const (
	memoTrial uint32 = iota
	memoKept
	memoRetired
)

const (
	probeCacheCap  = 8192 // max memoized verdicts per core record: the memory bound of a record that earns its memo
	probeTableInit = 8    // initial slot count (see store)

	// A cycle of K distinct shapes repeats nothing before its K+1st
	// probe, so no trial can tell it from unique traffic in fewer than
	// K inserts. This one outlasts, four times over, the longest cycles
	// the daemon's own traffic has (the 50-class load catalog, the
	// 64-task try-only batch), and a table of that many entries is
	// 24 KB — a thirtieth of what probeCacheCap lets a record hold. A
	// hit saves a core test and a miss adds a lookup and a store to
	// one, which puts break-even near one hit in twenty probes: a
	// record that has not had one in sixteen by the trial's end is
	// below it.
	probeTrialInserts = 256
	probeTrialHits    = probeTrialInserts / 16
)

// hash mixes the key's five words Fibonacci-style; quality only
// affects probe-chain length, not correctness.
func (k probeKey) hash() uint64 {
	const m = 0x9e3779b97f4a7c15
	h := (uint64(k.c) ^ 0x8f1bbcdcbfa53e0b) * m
	h = (h ^ uint64(k.t)) * m
	h = (h ^ uint64(k.d)) * m
	h = (h ^ uint64(k.prio)) * m
	h = (h ^ uint64(k.wss)) * m
	return h ^ (h >> 32)
}

// retired reports whether the record has given its memo up; callers
// skip building a key for one that has.
func (pc *probeCache) retired() bool { return pc.state.Load() == memoRetired }

func (pc *probeCache) lookup(k probeKey) (bool, bool) {
	t := pc.tab.Load()
	if t == nil {
		return false, false // nothing stored yet, or retired
	}
	mask := uint64(len(t.slots) - 1)
	h := k.hash()
	for i := 0; i < len(t.slots); i++ {
		s := &t.slots[(h+uint64(i))&mask]
		if s.state.Load() != slotReady {
			// Insert-only: an empty slot ends k's probe chain. (The
			// entry may be mid-publication by a concurrent writer —
			// that is a plain miss; the storer re-checks under the
			// mutex, so no duplicate is inserted.)
			return false, false
		}
		if s.key == k {
			if pc.state.Load() == memoTrial && pc.hits.Add(1) >= probeTrialHits {
				pc.state.CompareAndSwap(memoTrial, memoKept)
			}
			return s.verdict, true
		}
	}
	return false, false
}

// store publishes a solved verdict. The initial table is deliberately
// tiny: a core dirtied by steady commit churn gets a fresh probeCache
// every publish and sees only a handful of distinct probes before the
// next commit discards it, so the common table is a few hundred bytes
// of short-lived garbage, not a kilobytes-scale slab (a 64-slot
// initial table measured ~10% of the session read mix in allocation
// and cold-write cost). Long-lived records grow by doubling as their
// memo fills. The insert that completes the trial retires a record
// still on it.
func (pc *probeCache) store(k probeKey, verdict bool) {
	if pc.retired() {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.retired() {
		return
	}
	t := pc.tab.Load()
	if t == nil {
		t = &probeTable{slots: make([]probeSlot, probeTableInit)}
		pc.tab.Store(t)
	}
	if t.used >= probeCacheCap {
		return
	}
	// Grow at 3/4 load: readers keep probing the old table until the
	// new one is published; entries are copied, never mutated.
	if t.used >= len(t.slots)*3/4 {
		nt := &probeTable{slots: make([]probeSlot, 2*len(t.slots)), used: 0}
		for i := range t.slots {
			s := &t.slots[i]
			if s.state.Load() == slotReady && nt.insert(s.key, s.verdict) {
				nt.used++
			}
		}
		pc.tab.Store(nt)
		t = nt
	}
	if t.insert(k, verdict) {
		t.used++
	}
	if t.used >= probeTrialInserts && pc.state.CompareAndSwap(memoTrial, memoRetired) {
		// Under the mutex, so no store can publish a table after this;
		// readers still probing the old one finish on it.
		pc.tab.Store(nil)
	}
}

// insert publishes (k, verdict) in the first free slot of k's probe
// chain; false if the key is already present. Caller holds the mutex
// (or owns the table exclusively, during growth).
func (t *probeTable) insert(k probeKey, verdict bool) bool {
	mask := uint64(len(t.slots) - 1)
	for h := k.hash(); ; h++ {
		s := &t.slots[h&mask]
		if s.state.Load() == slotReady {
			if s.key == k {
				return false
			}
			continue
		}
		s.key = k
		s.verdict = verdict
		s.state.Store(slotReady) // release: payload above is now visible
		return true
	}
}

// --- published state -------------------------------------------------

// snapState is a published copy of a context's committed state: the
// writer's per-core records by value, its chain list, and the
// assignment view. fpSnapshot and edfSnapshot are the same struct
// under the two policies' probe methods.
type snapState struct {
	snapView
	cores  []coreRec
	chains []fpSnapChain
}

type (
	fpSnapshot  snapState
	edfSnapshot snapState
)

// Prober is a goroutine-local probe evaluator bound to one snapshot;
// see Snapshot.Prober.
type Prober interface {
	TryPlace(t *task.Task, c int) bool
	TrySplit(sp *task.Split, c int) bool
	Close()
}

// --- fixed-priority snapshot -----------------------------------------

// fpProber binds pooled scratch to one snapshot across many probes.
type fpProber struct {
	s  *fpSnapshot
	sc *fpProbeScratch
}

var fpProberPool = sync.Pool{New: func() any { return &fpProber{sc: new(fpProbeScratch)} }}

func (s *fpSnapshot) Prober() Prober {
	p := fpProberPool.Get().(*fpProber)
	p.s = s
	return p
}

func (p *fpProber) Close() {
	p.s = nil
	fpProberPool.Put(p)
}

// engine binds the probe engine to the snapshot's state, counting
// into the scratch (a counter on the caller's stack would escape
// through the engine).
func (p *fpProber) engine(stats AdmissionStats) fpProbe {
	s := p.s
	p.sc.stats = stats
	return fpProbe{m: s.m, mono: s.mono, maxN: s.maxN, cores: s.cores, chains: s.chains, sc: p.sc, stats: &p.sc.stats}
}

func (p *fpProber) TryPlace(t *task.Task, c int) bool {
	s, sc := p.s, p.sc
	if c < 0 || c >= s.ncores {
		return false
	}
	// Whole-task probes on chain-free snapshots are pure per-core
	// functions of the task parameters: serve repeats from the memo.
	pc := s.cores[c].probes
	useMemo := pc != nil && len(s.chains) == 0 && !pc.retired()
	var key probeKey
	if useMemo {
		key = probeKeyOf(t)
		if ok, hit := pc.lookup(key); hit {
			s.rs.Add(AdmissionStats{Probes: 1, CoreTests: 1, VerdictHits: 1})
			return ok
		}
	}
	run := p.engine(AdmissionStats{Probes: 1})
	sc.addEnts[0], sc.addCores[0] = newFPEntityInto(&sc.ent, t), c
	ok := run.run(sc.addEnts[:], sc.addCores[:], nil, c, probeN(s.cores, s.maxN, sc.addCores[:]))
	s.rs.Add(sc.stats)
	if useMemo {
		pc.store(key, ok)
	}
	return ok
}

func (p *fpProber) TrySplit(sp *task.Split, c int) bool {
	s, sc := p.s, p.sc
	if c < 0 || c >= s.ncores {
		return false
	}
	run := p.engine(AdmissionStats{Probes: 1})
	fillFPChain(&sc.tent, sp, &sc.pool)
	ok := run.run(sc.tent.ents, sc.tent.cores, &sc.tent, c, probeN(s.cores, s.maxN, sc.tent.cores))
	sc.pool.put(sc.tent.ents...)
	s.rs.Add(sc.stats)
	return ok
}

func (s *fpSnapshot) TryPlace(t *task.Task, c int) bool {
	p := s.Prober()
	defer p.Close()
	return p.TryPlace(t, c)
}

func (s *fpSnapshot) TrySplit(sp *task.Split, c int) bool {
	p := s.Prober()
	defer p.Close()
	return p.TrySplit(sp, c)
}

// Schedulable returns the full-test verdict of the committed state:
// inherited from the previous snapshot when publication could derive
// it, otherwise computed (warm-started, every core) at most once per
// snapshot by the first asker.
func (s *fpSnapshot) Schedulable() bool {
	if s.schedDone.Load() {
		return s.schedOK
	}
	s.schedOnce.Do(func() {
		p := s.Prober().(*fpProber)
		run := p.engine(AdmissionStats{FullTests: 1})
		s.schedOK = run.fullTest()
		s.rs.Add(p.sc.stats)
		p.Close()
		s.schedDone.Store(true)
	})
	return s.schedOK
}

// --- EDF snapshot ----------------------------------------------------

// edfProbeScratch is everything an EDF probe writes: the tentative
// whole-task entity, the one-element placement core slice, the split
// parts with their pool, and one probe set whose cost buffers persist
// across probes. A reader draws one from a pool per Prober; the writer
// owns one for life (see edfContext).
type edfProbeScratch struct {
	ent       Entity
	addCores  [1]int
	cs        CoreSet
	parts     []*Entity
	partCores []int
	pool      entPool
}

// edfProber binds pooled scratch to one snapshot across many probes.
type edfProber struct {
	s  *edfSnapshot
	sc *edfProbeScratch
}

var edfProberPool = sync.Pool{New: func() any { return &edfProber{sc: new(edfProbeScratch)} }}

func (s *edfSnapshot) Prober() Prober {
	p := edfProberPool.Get().(*edfProber)
	p.s = s
	return p
}

func (p *edfProber) Close() {
	p.s = nil
	edfProberPool.Put(p)
}

func (p *edfProber) TryPlace(t *task.Task, c int) bool {
	s, sc := p.s, p.sc
	if c < 0 || c >= s.ncores {
		return false
	}
	pc := s.cores[c].probes
	useMemo := pc != nil && !pc.retired()
	var key probeKey
	if useMemo {
		key = probeKeyOf(t)
		if ok, hit := pc.lookup(key); hit {
			s.rs.Add(AdmissionStats{Probes: 1, CoreTests: 1, VerdictHits: 1})
			return ok
		}
	}
	sc.addCores[0] = c
	n := probeN(s.cores, s.maxN, sc.addCores[:])
	ok, _, points := edfEvalProbe(s.m, s.mono, &s.cores[c], &sc.cs, c, newEDFEntityInto(&sc.ent, t), nil, nil, n)
	s.rs.Add(AdmissionStats{Probes: 1, CoreTests: 1, DemandTests: 1, DemandPoints: points})
	if useMemo {
		pc.store(key, ok)
	}
	return ok
}

func (p *edfProber) TrySplit(sp *task.Split, c int) bool {
	s, sc := p.s, p.sc
	if c < 0 || c >= s.ncores {
		return false
	}
	sc.parts, sc.partCores = fillEDFParts(sc.parts, sc.partCores, sp, &sc.pool)
	n := probeN(s.cores, s.maxN, sc.partCores)
	ok, _, points := edfEvalProbe(s.m, s.mono, &s.cores[c], &sc.cs, c, nil, sc.parts, sc.partCores, n)
	sc.pool.put(sc.parts...)
	s.rs.Add(AdmissionStats{Probes: 1, CoreTests: 1, DemandTests: 1, DemandPoints: points})
	return ok
}

func (s *edfSnapshot) TryPlace(t *task.Task, c int) bool {
	p := s.Prober()
	defer p.Close()
	return p.TryPlace(t, c)
}

func (s *edfSnapshot) TrySplit(sp *task.Split, c int) bool {
	p := s.Prober()
	defer p.Close()
	return p.TrySplit(sp, c)
}

// Schedulable mirrors edfContext.Schedulable without its verdict
// cache: windows required on every split, then the per-core demand
// test. Inherited from the previous snapshot when publication could
// derive it; computed at most once per snapshot otherwise.
func (s *edfSnapshot) Schedulable() bool {
	if s.schedDone.Load() {
		return s.schedOK
	}
	s.schedOnce.Do(func() {
		p := s.Prober().(*edfProber)
		stats := AdmissionStats{FullTests: 1}
		s.schedOK = edfWindowed(s.splits)
		for c := 0; s.schedOK && c < len(s.cores); c++ {
			var points int64
			s.schedOK, _, points = edfEvalProbe(s.m, s.mono, &s.cores[c], &p.sc.cs, c, nil, nil, nil, s.maxN)
			stats.CoreTests++
			stats.DemandTests++
			stats.DemandPoints += points
		}
		s.rs.Add(stats)
		p.Close()
		s.schedDone.Store(true)
	})
	return s.schedOK
}

// edfWindowed reports whether every split carries deadline windows,
// which the EDF test requires.
func edfWindowed(splits []*task.Split) bool {
	for _, sp := range splits {
		if !sp.HasWindows() {
			return false
		}
	}
	return true
}

// --- SelfCheck shadow ------------------------------------------------

// checkedSnapshot shadows every snapshot decision with the stateless
// analyzer on a freshly materialized copy of the snapshot state; a
// divergence panics with both verdicts. Enabled by the same SelfCheck
// flag as checkedContext; test-only.
type checkedSnapshot struct {
	Snapshot
	m *overhead.Model
}

func (cs *checkedSnapshot) TryPlace(t *task.Task, c int) bool {
	got := cs.Snapshot.TryPlace(t, c)
	a := cs.CloneAssignment()
	a.Place(t, c)
	want := cs.Analyzer().CoreSchedulable(a, c, cs.m)
	if got != want {
		panic("analysis: snapshot TryPlace diverged from stateless CoreSchedulable")
	}
	return got
}

func (cs *checkedSnapshot) TrySplit(sp *task.Split, c int) bool {
	got := cs.Snapshot.TrySplit(sp, c)
	a := cs.CloneAssignment()
	a.Splits = append(a.Splits, sp)
	want := cs.Analyzer().CoreSchedulable(a, c, cs.m)
	if got != want {
		panic("analysis: snapshot TrySplit diverged from stateless CoreSchedulable")
	}
	return got
}

func (cs *checkedSnapshot) Schedulable() bool {
	got := cs.Snapshot.Schedulable()
	want := cs.Analyzer().Schedulable(cs.CloneAssignment(), cs.m)
	if got != want {
		panic("analysis: snapshot Schedulable diverged from stateless Schedulable")
	}
	return got
}

// Prober routes every probe through the checked snapshot so batched
// probes are shadow-verified too (test-only; allocates freely).
func (cs *checkedSnapshot) Prober() Prober { return &checkedProber{cs: cs} }

type checkedProber struct{ cs *checkedSnapshot }

func (p *checkedProber) TryPlace(t *task.Task, c int) bool   { return p.cs.TryPlace(t, c) }
func (p *checkedProber) TrySplit(sp *task.Split, c int) bool { return p.cs.TrySplit(sp, c) }
func (p *checkedProber) Close()                              {}
