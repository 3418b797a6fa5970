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
// Under fixed priorities the records carry their cores' tables, which
// publish brings up to date before it shares them: a reader reads a
// table and never builds one. The snapshot has no evaluator of its
// own. A Prober binds pooled scratch to the snapshot and runs the probe
// engine of engine.go over it — the tableProbe, fillView, fpEvalCore,
// resolve and edfEvalProbe a writer probe runs — and then drops what
// the writer would have kept. It sums its probes' counters and
// folds them into the context's read collector once, at Close.
//
// # Why sharing is safe
//
// Committed entities are immutable, and a probe writes nothing of the
// records: chain jitters are baked into the committed chain entities,
// and a probe that resolves jitters moves those of its own clones. The
// slices a snapshot shares with the writer — entities and tables — are
// never written in place while a snapshot references them
// (ctxBase.own), and the
// assignment's task and split lists are only ever replaced, or
// appended to beyond every published length.
//
// # Decision identity
//
// Snapshot verdicts are bit-identical to the stateless Analyzer on
// the snapshot's assignment, by the same three arguments as the owning
// Context: every iteration starts where the oracle's does or at a bound
// every fixed point obeys, except the chain resolution's start from the
// committed jitters, which a probe only extends; non-monotone overhead
// models resolve from zero jitters; and the per-entity screens refuse,
// pass or start only from bounds every fixed point obeys, on a view or from the table the publisher built (fixed
// priorities only; EDF screens utilization in edfHorizon). The fork
// differential and racing fuzz tests, TestPlainProbeMatchesViews and
// FuzzFPEntityScreen enforce this.
package analysis

import (
	"sync"
	"sync/atomic"

	"repro/internal/overhead"
	"repro/internal/task"
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
	// concurrent use; Close folds its counters into the owning
	// context's read stats and returns the scratch (the snapshot
	// itself remains valid).
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

// fpProber binds pooled scratch to one snapshot across many probes:
// eng is the engine bound to both, counting into acc. The counters fold
// into the snapshot's collector once, at Close; the collector's
// fixed-point observer still sees each probe.
type fpProber struct {
	s   *fpSnapshot
	sc  *fpProbeScratch
	eng fpProbe
	acc AdmissionStats
}

var fpProberPool = sync.Pool{New: func() any { return &fpProber{sc: new(fpProbeScratch)} }}

func (s *fpSnapshot) Prober() Prober {
	p := fpProberPool.Get().(*fpProber)
	p.s = s
	p.eng = fpProbe{m: s.m, mono: s.mono, maxN: s.maxN, cores: s.cores, chains: s.chains, sc: p.sc, stats: &p.acc}
	return p
}

func (p *fpProber) Close() {
	p.s.rs.fold(p.acc)
	p.s, p.eng, p.acc = nil, fpProbe{}, AdmissionStats{}
	fpProberPool.Put(p)
}

// observe shows the collector's observer the fixed-point work counted
// since acc held solves solves of iters iterations.
func (p *fpProber) observe(solves, iters int64) {
	p.s.rs.observe(p.acc.FPIterations-iters, p.acc.FPSolves-solves)
}

func (p *fpProber) TryPlace(t *task.Task, c int) bool {
	s, sc := p.s, p.sc
	if c < 0 || c >= s.ncores {
		return false
	}
	solves, iters := p.acc.FPSolves, p.acc.FPIterations
	p.acc.Probes++
	sc.addEnts[0], sc.addCores[0] = newFPEntityInto(&sc.ent, t), c
	ok := p.eng.run(sc.addEnts[:], sc.addCores[:], nil, c, placeN(s.cores, s.maxN, c))
	p.observe(solves, iters)
	return ok
}

func (p *fpProber) TrySplit(sp *task.Split, c int) bool {
	s, sc := p.s, p.sc
	if c < 0 || c >= s.ncores {
		return false
	}
	solves, iters := p.acc.FPSolves, p.acc.FPIterations
	p.acc.Probes++
	fillFPChain(&sc.tent, sp, &sc.pool)
	ok := p.eng.run(sc.tent.ents, sc.tent.cores, &sc.tent, c, probeN(s.cores, s.maxN, sc.tent.cores))
	sc.pool.put(sc.tent.ents...)
	p.observe(solves, iters)
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
// it, otherwise computed (every core) at most once per
// snapshot by the first asker.
func (s *fpSnapshot) Schedulable() bool {
	if s.schedDone.Load() {
		return s.schedOK
	}
	s.schedOnce.Do(func() {
		p := s.Prober().(*fpProber)
		p.acc.FullTests++
		s.schedOK = p.eng.fullTest()
		p.observe(0, 0)
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
	cs        CoreSet
	parts     []*Entity
	partCores []int
	pool      entPool
}

// edfProber binds pooled scratch to one snapshot across many probes,
// folding their counters at Close like fpProber.
type edfProber struct {
	s   *edfSnapshot
	sc  *edfProbeScratch
	acc AdmissionStats
}

var edfProberPool = sync.Pool{New: func() any { return &edfProber{sc: new(edfProbeScratch)} }}

func (s *edfSnapshot) Prober() Prober {
	p := edfProberPool.Get().(*edfProber)
	p.s = s
	return p
}

func (p *edfProber) Close() {
	p.s.rs.fold(p.acc)
	p.s, p.acc = nil, AdmissionStats{}
	edfProberPool.Put(p)
}

func (p *edfProber) TryPlace(t *task.Task, c int) bool {
	s, sc := p.s, p.sc
	if c < 0 || c >= s.ncores {
		return false
	}
	n := placeN(s.cores, s.maxN, c)
	ok, points := edfEvalProbe(s.m, &s.cores[c], &sc.cs, c, newEDFEntityInto(&sc.ent, t), nil, nil, n)
	p.acc = p.acc.Add(AdmissionStats{Probes: 1, CoreTests: 1, DemandTests: 1, DemandPoints: points})
	return ok
}

func (p *edfProber) TrySplit(sp *task.Split, c int) bool {
	s, sc := p.s, p.sc
	if c < 0 || c >= s.ncores {
		return false
	}
	sc.parts, sc.partCores = fillEDFParts(sc.parts, sc.partCores, sp, &sc.pool)
	n := probeN(s.cores, s.maxN, sc.partCores)
	ok, points := edfEvalProbe(s.m, &s.cores[c], &sc.cs, c, nil, sc.parts, sc.partCores, n)
	sc.pool.put(sc.parts...)
	p.acc = p.acc.Add(AdmissionStats{Probes: 1, CoreTests: 1, DemandTests: 1, DemandPoints: points})
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
			s.schedOK, points = edfEvalProbe(s.m, &s.cores[c], &p.sc.cs, c, nil, nil, nil, s.maxN)
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
