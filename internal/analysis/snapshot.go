// Copy-on-write admission snapshots: the lock-free concurrent read
// path of the analysis layer.
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
// # Copy-on-write discipline
//
// Publication is cheap because the contexts maintain their committed
// state copy-on-write: committed per-core entity slices, the
// assignment's per-core task lists and the split list are never
// mutated in place once published — an insert or removal builds a
// fresh slice, and tail-appends only ever write beyond every
// published length. A publish therefore copies O(cores) slice
// headers, not O(tasks) entities; only state a mutation dirtied is
// rebuilt (a core's warm-value vector, a chain's entity clones).
//
// # What readers may touch
//
// Shared entities have two classes of fields: the immutable analysis
// parameters (C, T, D, priority, part flags) and the owner's mutable
// accelerator slots (warm fixed-point values, chain jitters). Readers
// never touch the latter on shared entities: warm values are captured
// into the snapshot's own per-core vectors at publish time, and chain
// entities — whose Jitter the owner's resolutions rewrite — are
// cloned at publish time with the committed jitters baked in. A probe
// that needs to run its own jitter resolution clones the chains again
// probe-locally, so concurrent probes on one snapshot never share
// mutable state.
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
// simply dies with (or outlives, see publish) the core record.
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

// --- fixed-priority snapshot -----------------------------------------

// fpSnapCore is one core's published state: the priority-sorted
// committed entities (chain entities replaced by snapshot-owned
// clones), the committed converged response times parallel to ents
// (nil under a non-monotone model; backed by the refcounted wbuf),
// and the core's probe-verdict memo.
type fpSnapCore struct {
	ents     []*Entity
	warm     []timeq.Time
	cacheMax timeq.Time
	probes   *probeCache
}

// fpSnapChain is one published split chain: snapshot-owned entity
// clones (committed jitters baked in) and their host cores.
type fpSnapChain struct {
	sp    *task.Split
	ents  []*Entity
	cores []int
}

type fpSnapshot struct {
	snapView
	cores  []fpSnapCore
	chains []fpSnapChain
}

// Prober is a goroutine-local probe evaluator bound to one snapshot;
// see Snapshot.Prober.
type Prober interface {
	TryPlace(t *task.Task, c int) bool
	TrySplit(sp *task.Split, c int) bool
	Close()
}

// fpProbeScratch is the pooled allocation behind every fixed-priority
// snapshot probe: the tentative entity and its one-element placement
// slices, the single-core probe view of the no-chain fast path, and
// the per-core views, chain-clone slabs and failure map of the chain
// path. Everything a probe touches lives here or in the (immutable)
// snapshot, so steady-state probes allocate nothing.
type fpProbeScratch struct {
	ent      Entity
	addEnts  [1]*Entity
	addCores [1]int
	view     probeView // no-chain single-core path

	// chain-path scratch
	views     []probeView
	chains    []fpSnapChain
	cloneSlab []Entity  // chain-entity clones (jitters mutable)
	clonePtrs []*Entity // pointers into cloneSlab, sliced per chain
	failed    map[*Entity]bool

	// tentative split chain (TrySplit)
	split      fpChain
	splitEnts  []Entity
	splitPtrs  []*Entity
	splitCores []int
}

// buildChain is buildFPChain into the scratch slabs; the entities'
// analysis parameters are filled identically.
func (sc *fpProbeScratch) buildChain(sp *task.Split) *fpChain {
	n := len(sp.Parts)
	if cap(sc.splitEnts) < n {
		sc.splitEnts = make([]Entity, n)
		sc.splitPtrs = make([]*Entity, n)
		sc.splitCores = make([]int, n)
	}
	ents, ptrs, cores := sc.splitEnts[:n], sc.splitPtrs[:n], sc.splitCores[:n]
	last := n - 1
	for i, p := range sp.Parts {
		ents[i] = Entity{
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
		ptrs[i] = &ents[i]
		cores[i] = p.Core
	}
	sc.split = fpChain{sp: sp, ents: ptrs, cores: cores}
	return &sc.split
}

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

func (p *fpProber) TryPlace(t *task.Task, c int) bool {
	s := p.s
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
	run := fpProbe{s: s, sc: p.sc}
	run.stats.Probes++
	e := newFPEntityInto(&p.sc.ent, t)
	p.sc.addEnts[0], p.sc.addCores[0] = e, c
	ok := run.run(p.sc.addEnts[:], p.sc.addCores[:], nil, c)
	s.rs.Add(run.stats)
	if useMemo {
		pc.store(key, ok)
	}
	return ok
}

func (p *fpProber) TrySplit(sp *task.Split, c int) bool {
	s := p.s
	if c < 0 || c >= s.ncores {
		return false
	}
	run := fpProbe{s: s, sc: p.sc}
	run.stats.Probes++
	ch := p.sc.buildChain(sp)
	ok := run.run(ch.ents, ch.cores, ch, c)
	s.rs.Add(run.stats)
	return ok
}

// fpProbe is the state of one snapshot probe evaluation: a per-core
// view of the probe state (committed entities, chain clones and
// tentative entities merged in) with a probe-local warm vector, all
// backed by the pooled scratch.
type fpProbe struct {
	s      *fpSnapshot
	sc     *fpProbeScratch
	views  []probeView
	chains []fpSnapChain    // probe-local clones (jitters mutable)
	failed map[*Entity]bool // cleared scratch map; grown by resolve
	stats  AdmissionStats   // folded into s.rs at the end
}

type probeView struct {
	cs   CoreSet
	warm []timeq.Time
}

func (s *fpSnapshot) TryPlace(t *task.Task, c int) bool {
	p := s.Prober().(*fpProber)
	ok := p.TryPlace(t, c)
	p.Close()
	return ok
}

func (s *fpSnapshot) TrySplit(sp *task.Split, c int) bool {
	p := s.Prober().(*fpProber)
	ok := p.TrySplit(sp, c)
	p.Close()
	return ok
}

// probeN mirrors fpContext.probeN on the snapshot state: the
// committed bound, raised by any core the probe tentatively grows
// past it.
func (s *fpSnapshot) probeN(addCores []int) int {
	n := s.maxN
	for c := range s.cores {
		grow := 0
		for _, d := range addCores {
			if d == c {
				grow++
			}
		}
		if k := len(s.cores[c].ents) + grow; k > n {
			n = k
		}
	}
	return n
}

// run evaluates one probe: tentative entities add placed on addCores
// (and, for splits, the tentative chain), verdict for probeCore. It
// mirrors fpContext.TryPlace/TrySplit on the probe state, with every
// mutable accelerator probe-local (backed by the pooled scratch, so
// steady-state probes allocate nothing on either path).
func (p *fpProbe) run(add []*Entity, addCores []int, tentChain *fpChain, probeCore int) bool {
	s := p.s
	probeN := s.probeN(addCores)
	if len(s.chains) == 0 && tentChain == nil {
		// No chains, no cross-core coupling: probe core c alone
		// (mirrors the stateless fast path and the context's),
		// in the scratch view (the CoreSet keeps its cost buffers;
		// fillView re-keys them).
		v := &p.sc.view
		p.fillView(v, probeCore, add, addCores, probeN)
		return p.evalCore(v, nil)
	}
	// Build views for every core; clone the chains probe-locally so
	// the resolution below never writes shared state.
	p.buildViews(add, addCores, probeN)
	p.cloneChains(tentChain)
	p.resolve()
	ok := p.evalCore(&p.views[probeCore], p.failed)
	p.sc.failed = p.failed // retain the lazily grown map
	return ok
}

// buildViews assembles every core's probe-state view (committed
// entities plus any tentative entities hosted there, probe-local warm
// vectors initialized from the snapshot's committed values) in the
// scratch view slab.
func (p *fpProbe) buildViews(add []*Entity, addCores []int, probeN int) {
	s, sc := p.s, p.sc
	if cap(sc.views) < s.ncores {
		sc.views = make([]probeView, s.ncores)
	}
	sc.views = sc.views[:s.ncores]
	p.views = sc.views
	for c := range p.views {
		p.fillView(&p.views[c], c, add, addCores, probeN)
	}
}

// cloneChains clones the snapshot's chains into the scratch slabs
// (committed jitters baked in at publish; the resolution mutates the
// clones' jitters), swaps the clones into the views, appends the
// tentative chain if any, and hands the cleared failure map to the
// resolution.
func (p *fpProbe) cloneChains(tentChain *fpChain) {
	s, sc := p.s, p.sc
	nclone := 0
	for _, ch := range s.chains {
		nclone += len(ch.ents)
	}
	if cap(sc.cloneSlab) < nclone {
		sc.cloneSlab = make([]Entity, nclone)
		sc.clonePtrs = make([]*Entity, nclone)
	}
	clones, ptrs := sc.cloneSlab[:nclone], sc.clonePtrs[:nclone]
	p.chains = sc.chains[:0]
	off := 0
	for _, ch := range s.chains {
		n := len(ch.ents)
		cents := ptrs[off : off+n : off+n]
		for i, e := range ch.ents {
			ce := &clones[off+i]
			*ce = *e
			cents[i] = ce
			p.swapEntity(ch.cores[i], e, ce)
		}
		off += n
		p.chains = append(p.chains, fpSnapChain{sp: ch.sp, cores: ch.cores, ents: cents})
	}
	if tentChain != nil {
		p.chains = append(p.chains, fpSnapChain{sp: tentChain.sp, ents: tentChain.ents, cores: tentChain.cores})
	}
	sc.chains = p.chains[:0]
	if sc.failed != nil {
		clear(sc.failed)
	}
	p.failed = sc.failed
}

// fillView is buildView into caller-provided (possibly pooled)
// scratch; the view's cost caches are invalidated, never trusted.
func (p *fpProbe) fillView(v *probeView, c int, add []*Entity, addCores []int, probeN int) {
	s := p.s
	base := &s.cores[c]
	ents := append(v.cs.Entities[:0], base.ents...)
	warm := v.warm[:0]
	if s.mono && base.warm != nil {
		warm = append(warm, base.warm...)
	} else {
		for range base.ents {
			warm = append(warm, 0)
		}
	}
	cm := base.cacheMax
	for i, e := range add {
		if addCores[i] != c {
			continue
		}
		ents, warm = insertByPriorityWarm(ents, warm, e, 0)
		if d := s.m.Cache.MaxDelay(e.Task.WSS); d > cm {
			cm = d
		}
	}
	v.warm = warm
	v.cs.Entities = ents
	v.cs.N = probeN
	v.cs.CacheMax = cm
	v.cs.invalidateCosts()
}

// insertByPriorityWarm is insertByPriority keeping a warm vector
// parallel to the entity slice.
func insertByPriorityWarm(ents []*Entity, warm []timeq.Time, e *Entity, w timeq.Time) ([]*Entity, []timeq.Time) {
	i := 0
	for i < len(ents) && ents[i].LocalPriority <= e.LocalPriority {
		i++
	}
	ents = append(ents, nil)
	copy(ents[i+1:], ents[i:])
	ents[i] = e
	warm = append(warm, 0)
	copy(warm[i+1:], warm[i:])
	warm[i] = w
	return ents, warm
}

// swapEntity replaces a shared chain entity with its probe-local
// clone in core c's view, carrying the warm value over.
func (p *fpProbe) swapEntity(c int, old, clone *Entity) {
	v := &p.views[c]
	for i, e := range v.cs.Entities {
		if e == old {
			v.cs.Entities[i] = clone
			return
		}
	}
}

// solve runs one response-time fixed point warm-started from the
// probe-local vector, recording the converged value back into it.
func (p *fpProbe) solve(v *probeView, idx int) (timeq.Time, bool) {
	var start timeq.Time
	if p.s.mono {
		start = v.warm[idx]
	}
	e := v.cs.Entities[idx]
	r, ok, iters := v.cs.responseTime(e, p.s.m, start)
	p.stats.FPSolves++
	p.stats.FPIterations += int64(iters)
	if start > 0 {
		p.stats.WarmStarts++
	}
	if ok && p.s.mono {
		v.warm[idx] = r
	}
	return r, ok
}

// evalCore is the failure-first core test (fpEvalCore) on a probe
// view.
func (p *fpProbe) evalCore(v *probeView, failed map[*Entity]bool) bool {
	p.stats.CoreTests++
	return fpEvalCore(&v.cs, failed, func(i int) bool {
		_, ok := p.solve(v, i)
		return ok
	})
}

// resolve runs the split-chain jitter fixed point over the probe
// views, mirroring fpContext.resolve: warm-started from the committed
// jitters under a monotone model, cold from zero otherwise.
func (p *fpProbe) resolve() {
	const maxPasses = 1000
	if len(p.chains) == 0 {
		return
	}
	if !p.s.mono {
		for _, ch := range p.chains {
			for _, e := range ch.ents {
				e.Jitter = 0
			}
		}
	}
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, ch := range p.chains {
			cum := timeq.Time(0)
			for i, e := range ch.ents {
				if e.Jitter != cum {
					e.Jitter = cum
					changed = true
				}
				v := &p.views[ch.cores[i]]
				idx := -1
				for k, o := range v.cs.Entities {
					if o == e {
						idx = k
						break
					}
				}
				r, ok := p.solve(v, idx)
				if !ok {
					if p.failed == nil {
						p.failed = make(map[*Entity]bool)
					}
					p.failed[e] = true
					r = e.D
				} else {
					delete(p.failed, e)
				}
				cum = timeq.AddSat(cum, r)
			}
		}
		if !changed {
			break
		}
	}
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
		pr := s.Prober().(*fpProber)
		p := fpProbe{s: s, sc: pr.sc}
		p.stats.FullTests++
		s.schedOK = p.fullTest()
		s.rs.Add(p.stats)
		pr.Close()
		s.schedDone.Store(true)
	})
	return s.schedOK
}

func (p *fpProbe) fullTest() bool {
	s := p.s
	p.buildViews(nil, nil, s.maxN)
	p.cloneChains(nil)
	p.resolve()
	p.sc.failed = p.failed
	if len(p.failed) > 0 {
		return false
	}
	for c := range p.views {
		if !p.evalCore(&p.views[c], nil) {
			return false
		}
	}
	return true
}

// --- EDF snapshot ----------------------------------------------------

// edfSnapCore is one core's published state under EDF: the canonical
// entity order (normals, then split parts), the committed demand memo
// (immutable once published; nil under a non-monotone model) and the
// cache bound.
type edfSnapCore struct {
	ents     []*Entity
	nNormals int
	cacheMax timeq.Time
	memo     *edfDemandMemo
	rev      int64 // committed content revision (cache carryover check)
	probes   *probeCache
}

type edfSnapshot struct {
	snapView
	cores []edfSnapCore
}

func (s *edfSnapshot) probeN(addCores []int) int {
	n := s.maxN
	for c := range s.cores {
		grow := 0
		for _, d := range addCores {
			if d == c {
				grow++
			}
		}
		if k := len(s.cores[c].ents) + grow; k > n {
			n = k
		}
	}
	return n
}

// edfProbeScratch is the pooled allocation behind EDF snapshot
// probes: the tentative entity, the canonical-order entity buffer,
// one CoreSet whose cost and deadline-point buffers persist across
// probes, the one-element placement core slice, and the split-part
// slabs.
type edfProbeScratch struct {
	ent      Entity
	addCores [1]int
	buf      []*Entity
	cs       CoreSet

	splitEnts  []Entity
	splitPtrs  []*Entity
	splitCores []int
}

// splitEntities is edfSplitEntities into the scratch slabs.
func (sc *edfProbeScratch) splitEntities(sp *task.Split) ([]*Entity, []int) {
	n := len(sp.Parts)
	if cap(sc.splitEnts) < n {
		sc.splitEnts = make([]Entity, n)
		sc.splitPtrs = make([]*Entity, n)
		sc.splitCores = make([]int, n)
	}
	ents, ptrs, cores := sc.splitEnts[:n], sc.splitPtrs[:n], sc.splitCores[:n]
	last := n - 1
	for i, p := range sp.Parts {
		d := sp.Task.EffectiveDeadline()
		if sp.HasWindows() {
			d = sp.Windows[i]
		}
		ents[i] = Entity{
			Task:           sp.Task,
			C:              p.Budget,
			T:              sp.Task.Period,
			D:              d,
			PartIndex:      i,
			MigrIn:         i > 0,
			MigrOut:        i < last,
			RemoteSleepAdd: i == last,
		}
		ptrs[i] = &ents[i]
		cores[i] = p.Core
	}
	return ptrs, cores
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
	s := p.s
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
	sc := p.sc
	e := newEDFEntityInto(&sc.ent, t)
	sc.addCores[0] = c
	ok := s.evalProbe(sc, c, e, nil, nil, s.probeN(sc.addCores[:]))
	if useMemo {
		pc.store(key, ok)
	}
	return ok
}

func (p *edfProber) TrySplit(sp *task.Split, c int) bool {
	s := p.s
	if c < 0 || c >= s.ncores {
		return false
	}
	ents, cores := p.sc.splitEntities(sp)
	return s.evalProbe(p.sc, c, nil, ents, cores, s.probeN(cores))
}

// evalProbe mirrors edfContext.evalProbe on the snapshot: the probe
// set assembled in the canonical order within the scratch buffers,
// the committed memo reused read-only (concurrent readers may share
// it — nothing writes it, and the scratch CoreSet's point buffers
// never leak into a memo: memos own private slices).
func (s *edfSnapshot) evalProbe(sc *edfProbeScratch, c int, place *Entity, parts []*Entity, partCores []int, probeN int) bool {
	st := &s.cores[c]
	buf := sc.buf[:0]
	cm := st.cacheMax
	if place != nil {
		buf = append(buf, st.ents[:st.nNormals]...)
		buf = append(buf, place)
		buf = append(buf, st.ents[st.nNormals:]...)
		if d := s.m.Cache.MaxDelay(place.Task.WSS); d > cm {
			cm = d
		}
	} else {
		buf = append(buf, st.ents...)
		for i, e := range parts {
			if partCores[i] != c {
				continue
			}
			buf = append(buf, e)
			if d := s.m.Cache.MaxDelay(e.Task.WSS); d > cm {
				cm = d
			}
		}
	}
	sc.buf = buf[:0]
	cs := &sc.cs
	cs.Entities = buf
	cs.N = probeN
	cs.CacheMax = cm
	cs.invalidateCosts()
	var memo *edfDemandMemo
	if s.mono {
		memo = st.memo
	}
	var stats AdmissionStats
	stats.Probes, stats.CoreTests = 1, 1
	ok, _ := cs.edfSchedulable(s.m, memo, false)
	s.rs.Add(stats)
	return ok
}

func (s *edfSnapshot) TryPlace(t *task.Task, c int) bool {
	p := s.Prober().(*edfProber)
	ok := p.TryPlace(t, c)
	p.Close()
	return ok
}

func (s *edfSnapshot) TrySplit(sp *task.Split, c int) bool {
	p := s.Prober().(*edfProber)
	ok := p.TrySplit(sp, c)
	p.Close()
	return ok
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
		var stats AdmissionStats
		stats.FullTests++
		s.schedOK = func() bool {
			for _, sp := range s.splits {
				if !sp.HasWindows() {
					return false // EDF requires window-split tasks
				}
			}
			for c := range s.cores {
				st := &s.cores[c]
				var cs CoreSet
				cs.Entities = st.ents
				cs.N = s.maxN
				cs.CacheMax = st.cacheMax
				var memo *edfDemandMemo
				if s.mono {
					memo = st.memo
				}
				stats.CoreTests++
				if ok, _ := cs.edfSchedulable(s.m, memo, false); !ok {
					return false
				}
			}
			return true
		}()
		s.rs.Add(stats)
		s.schedDone.Store(true)
	})
	return s.schedOK
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
