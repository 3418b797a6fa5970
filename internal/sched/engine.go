package sched

import (
	"fmt"
	"math/rand"

	"repro/internal/binheap"
	"repro/internal/overhead"
	"repro/internal/rbtree"
	"repro/internal/task"
	"repro/internal/timeq"
	"repro/internal/trace"
)

// jobState tracks where a job currently lives.
type jobState int

const (
	jsSleeping jobState = iota // in a sleep queue (or not yet released)
	jsReady                    // in a ready queue
	jsRunning                  // executing on a core, or staged to resume
	jsInFlight                 // migrating between cores
)

// job is the runtime object for one task. One job object per task is
// reused across periods (jobs of a task are sequential).
type job struct {
	t     *task.Task
	split *task.Split // nil for normal tasks
	home  int         // core hosting releases and the sleep entry
	// staticPrio is the fixed-priority key (split parts boosted);
	// prio is the current dispatching key — equal to staticPrio
	// under fixed priority, the absolute part deadline under EDF.
	staticPrio int64
	prio       int64

	state jobState
	core  int // hosting core while ready/running

	// Handle into the hosting sleep queue.
	sleepNode *rbtree.Node[*job]

	// Per-instance fields.
	active    bool
	release   timeq.Time
	deadline  timeq.Time
	partIdx   int
	remaining timeq.Time // remaining budget of the current part
	extra     timeq.Time // pending cache-reload time, consumed first
	segStart  timeq.Time // when the current execution span started
	gen       int        // invalidates stale events
}

// partBudget returns the budget of part i (the WCET for normal tasks).
func (j *job) partBudget(i int) timeq.Time {
	if j.split == nil {
		return j.t.WCET
	}
	return j.split.Parts[i].Budget
}

// lastPart reports whether the current part is the final one.
func (j *job) lastPart() bool {
	return j.split == nil || j.partIdx == len(j.split.Parts)-1
}

// partCore returns the core of part i.
func (j *job) partCore(i int) int {
	if j.split == nil {
		return j.home
	}
	return j.split.Parts[i].Core
}

// core is one processor: the paper's per-core ready queue (binomial
// heap, keyed by priority) and sleep queue (red-black tree, keyed by
// next release time).
type core struct {
	id    int
	n     int // entities hosted here: the N of δ(N)/θ(N)
	ready binheap.Heap[*job]
	sleep rbtree.Tree[*job]

	running *job
	// kernelUntil marks the end of the in-progress kernel segment;
	// events targeting the core defer to it.
	kernelUntil timeq.Time
	// pendingResume is the job staged to run when the segment ends.
	pendingResume *job
}

// evKind discriminates engine events.
type evKind int

const (
	evWake      evKind = iota // release timer on a core
	evSegEnd                  // kernel segment finished
	evJobDone                 // running job's execution span complete
	evMigArrive               // migrated part lands on the destination
	evResched                 // deferred scheduling check
)

// event is one entry in the global event queue.
type event struct {
	kind evKind
	core int
	j    *job
	gen  int
}

type engine struct {
	a       *task.Assignment
	model   *overhead.Model
	rec     trace.Recorder
	horizon timeq.Time
	policy  Policy

	cores []*core
	jobs  []*job
	eq    binheap.Heap[*event] // keyed by time; FIFO among equal times
	now   timeq.Time

	// Sporadic arrivals: each next release is delayed by a uniform
	// draw from [0, jitter] (nil rng = strictly periodic).
	jitter timeq.Time
	rng    *rand.Rand

	stats        Stats
	misses       []Miss
	maxResponse  map[task.ID]timeq.Time
	jobCount     map[task.ID]int
	maxTardiness map[task.ID]timeq.Time
}

// maxEvents caps the run as a defense against engine bugs; generously
// above any legitimate experiment.
const maxEvents = 100_000_000

func newEngine(a *task.Assignment, model *overhead.Model, rec trace.Recorder, horizon timeq.Time, offsets map[task.ID]timeq.Time) *engine {
	e := &engine{
		a: a, model: model, rec: rec, horizon: horizon,
		maxResponse:  make(map[task.ID]timeq.Time),
		jobCount:     make(map[task.ID]int),
		maxTardiness: make(map[task.ID]timeq.Time),
	}
	e.stats.OverheadTime = make(map[string]timeq.Time)
	e.stats.PerCore = make([]CoreStats, a.NumCores)
	e.stats.Horizon = horizon
	// The queue-size bound N is global — "the maximal number of
	// tasks in the queue" (Section 3) — and shared with the analysis.
	n := a.MaxTasksPerCore()
	for c := 0; c < a.NumCores; c++ {
		e.cores = append(e.cores, &core{id: c, n: n})
	}
	mkJob := func(t *task.Task, sp *task.Split, home int, prio int64) {
		j := &job{t: t, split: sp, home: home, staticPrio: prio, prio: prio, state: jsSleeping, core: home}
		e.jobs = append(e.jobs, j)
		off := offsets[t.ID]
		j.sleepNode = e.cores[home].sleep.Insert(int64(off), j)
		e.schedule(off, &event{kind: evWake, core: home})
	}
	for c, ts := range a.Normal {
		for _, t := range ts {
			mkJob(t, nil, c, int64(t.Priority))
		}
	}
	for _, sp := range a.Splits {
		mkJob(sp.Task, sp, sp.Parts[0].Core, int64(sp.LocalPriority()))
	}
	return e
}

func (e *engine) schedule(t timeq.Time, ev *event) {
	e.eq.Insert(int64(t), ev)
}

// keyFor computes the job's current dispatching key: the static local
// priority under fixed-priority scheduling, the absolute deadline of
// the current part under EDF (the window end for split parts).
func (e *engine) keyFor(j *job) int64 {
	if e.policy != EDF {
		return j.staticPrio
	}
	if j.split != nil {
		return int64(j.release + j.split.WindowDeadline(j.partIdx))
	}
	return int64(j.release + j.t.EffectiveDeadline())
}

// charge books overhead time of one category and emits a trace event.
func (e *engine) charge(c int, label string, d timeq.Time) timeq.Time {
	if d > 0 {
		e.stats.OverheadTime[label] += d
		e.stats.PerCore[c].Overhead += d
		e.rec.Record(trace.Event{T: e.now, Core: c, Kind: trace.Overhead, Dur: d, Label: label})
	}
	return d
}

// run drains the event queue up to the horizon.
func (e *engine) run() error {
	for n := 0; ; n++ {
		if n > maxEvents {
			return fmt.Errorf("sched: exceeded %d events; engine livelock?", maxEvents)
		}
		it := e.eq.ExtractMin()
		if it == nil {
			break
		}
		t := timeq.Time(it.Key)
		if t >= e.horizon {
			break
		}
		if t < e.now {
			return fmt.Errorf("sched: time went backwards (%v after %v)", t, e.now)
		}
		e.now = t
		ev := it.Value
		switch ev.kind {
		case evWake:
			e.handleWake(ev.core)
		case evSegEnd:
			e.handleSegEnd(ev.core)
		case evJobDone:
			e.handleJobDone(ev.core, ev.j, ev.gen)
		case evMigArrive:
			e.handleMigArrive(ev.core, ev.j, ev.gen)
		case evResched:
			e.reschedule(ev.core)
		}
	}
	e.sweepUnfinished()
	return nil
}

// deferred reschedules an event of the given kind (targeting the
// core itself) to the end of the core's kernel segment, reporting
// whether it did so. The event is only allocated on the defer path,
// which keeps the common case allocation-free.
func (e *engine) deferred(c *core, kind evKind) bool {
	if c.kernelUntil > e.now {
		e.schedule(c.kernelUntil, &event{kind: kind, core: c.id})
		return true
	}
	return false
}

// finishPass ends a scheduling pass: the chosen job starts when the
// kernel segment of duration dur ends (immediately for dur = 0).
func (e *engine) finishPass(c *core, dur timeq.Time, resume *job) {
	if dur == 0 {
		if resume != nil && c.running == nil {
			e.dispatch(c, resume)
		}
		return
	}
	c.pendingResume = resume
	c.kernelUntil = e.now + dur
	e.schedule(c.kernelUntil, &event{kind: evSegEnd, core: c.id})
}

// pauseRunning halts the core's running job at the current time,
// consuming elapsed reload and execution time, and returns it.
func (e *engine) pauseRunning(c *core) *job {
	j := c.running
	if j == nil {
		return nil
	}
	elapsed := e.now - j.segStart
	reload := timeq.Min(elapsed, j.extra)
	if reload > 0 {
		e.charge(c.id, "cache", reload)
	}
	j.extra -= reload
	exec := elapsed - reload
	j.remaining -= exec
	e.stats.ExecTime += exec
	e.stats.PerCore[c.id].Exec += exec
	if j.remaining < 0 {
		panic("sched: job executed past its budget")
	}
	j.gen++ // invalidate the pending evJobDone
	c.running = nil
	return j
}

// dispatch starts (or resumes) j on core c at the current time. Any
// pending cache-reload time is paid at the head of the span.
func (e *engine) dispatch(c *core, j *job) {
	if c.running != nil {
		panic("sched: dispatch on busy core")
	}
	j.state = jsRunning
	j.core = c.id
	c.running = j
	j.segStart = e.now
	j.gen++
	e.schedule(e.now+j.extra+j.remaining, &event{kind: evJobDone, core: c.id, j: j, gen: j.gen})
	e.rec.Record(trace.Event{T: e.now, Core: c.id, Kind: trace.Dispatch, Task: j.t.ID, Part: j.partIdx})
}

// handleWake pops every due job from core c's sleep queue, releases
// them, and runs the scheduler — the paper's release() + sch() path.
func (e *engine) handleWake(cid int) {
	c := e.cores[cid]
	if e.deferred(c, evWake) {
		return
	}
	var dur timeq.Time
	released := 0
	for {
		mn := c.sleep.Min()
		if mn == nil || timeq.Time(mn.Key) > e.now {
			break
		}
		c.sleep.Delete(mn)
		j := mn.Value
		j.sleepNode = nil
		if j.active {
			// Jobs enter the sleep queue only on completion, so an
			// active job here is an engine bug, not an overrun: an
			// overrunning task simply re-enters the sleep queue late
			// and its next release slips (the behaviour of a
			// periodic thread looping work(); sleep_until(next)).
			panic("sched: active job in sleep queue")
		}
		j.active = true
		j.release = timeq.Time(mn.Key)
		j.deadline = j.release + j.t.EffectiveDeadline()
		j.partIdx = 0
		j.remaining = j.partBudget(0)
		j.extra = 0
		j.state = jsReady
		j.core = cid
		j.prio = e.keyFor(j)
		dur += e.charge(cid, "rls", e.model.Release)
		dur += e.charge(cid, "sq-del", e.model.QueueOpCost(overhead.SleepDelete, c.n, false))
		dur += e.charge(cid, "rq-add", e.model.QueueOpCost(overhead.ReadyAdd, c.n, false))
		c.ready.Insert(j.prio, j)
		e.stats.Releases++
		released++
		e.rec.Record(trace.Event{T: e.now, Core: cid, Kind: trace.Release, Task: j.t.ID})
	}
	if released == 0 {
		return // a sibling wake event already popped the batch
	}
	d2, resume := e.schedulerPass(c)
	e.finishPass(c, dur+d2, resume)
}

// schedulerPass charges sch, decides preemption against the currently
// running job, performs the queue operations, and returns the charged
// duration plus the job to run when the pass completes.
func (e *engine) schedulerPass(c *core) (timeq.Time, *job) {
	var dur timeq.Time
	dur += e.charge(c.id, "sch", e.model.Sched)
	cand := c.ready.Min()
	cur := c.running
	switchTo := cand != nil && (cur == nil || cand.Key < cur.prio)
	if cur != nil {
		e.pauseRunning(c)
	}
	if !switchTo {
		return dur, cur
	}
	if cur != nil {
		// Preemption: requeue the victim; it pays a cache reload
		// when it resumes.
		dur += e.charge(c.id, "rq-add", e.model.QueueOpCost(overhead.ReadyAdd, c.n, false))
		cur.state = jsReady
		c.ready.Insert(cur.prio, cur)
		cur.extra += e.model.Cache.Delay(cur.t.WSS, false)
		e.stats.Preemptions++
		e.rec.Record(trace.Event{T: e.now, Core: c.id, Kind: trace.Preempt, Task: cur.t.ID, Part: cur.partIdx})
	}
	dur += e.charge(c.id, "rq-del", e.model.QueueOpCost(overhead.ReadyDelete, c.n, false))
	dur += e.charge(c.id, "cnt1", e.model.CtxSwitch)
	chosen := c.ready.ExtractMin().Value
	chosen.state = jsRunning // staged: the switch to it is in progress
	chosen.core = c.id
	return dur, chosen
}

// handleSegEnd resumes the job staged when the segment started.
func (e *engine) handleSegEnd(cid int) {
	c := e.cores[cid]
	resume := c.pendingResume
	c.pendingResume = nil
	if c.running != nil {
		return
	}
	if resume != nil && resume.active && resume.state == jsRunning {
		e.dispatch(c, resume)
		return
	}
	// The staged job vanished (aborted by an overrun); fall back to
	// the queue.
	if c.ready.Len() > 0 {
		e.reschedule(cid)
	} else {
		e.rec.Record(trace.Event{T: e.now, Core: cid, Kind: trace.Idle})
	}
}

// handleJobDone processes completion of the running job's execution
// span: job finish (normal/tail) or budget exhaustion (body part).
func (e *engine) handleJobDone(cid int, j *job, gen int) {
	c := e.cores[cid]
	if j.gen != gen || c.running != j {
		return // stale
	}
	e.pauseRunning(c)
	if j.remaining != 0 || j.extra != 0 {
		panic("sched: evJobDone with residual work")
	}
	if j.lastPart() {
		e.finishJob(c, j)
	} else {
		e.migrateOut(c, j)
	}
}

// finishJob runs the paper's cnt_swth() finish case: store context,
// insert the task into the home core's sleep queue (remote for a
// migrated tail), dispatch the next ready job.
func (e *engine) finishJob(c *core, j *job) {
	resp := e.now - j.release
	if resp > e.maxResponse[j.t.ID] {
		e.maxResponse[j.t.ID] = resp
	}
	e.jobCount[j.t.ID]++
	e.stats.Finishes++
	if e.now > j.deadline {
		e.recordMiss(j, e.now, false)
		if tard := e.now - j.deadline; tard > e.maxTardiness[j.t.ID] {
			e.maxTardiness[j.t.ID] = tard
		}
	}
	e.rec.Record(trace.Event{T: e.now, Core: c.id, Kind: trace.Finish, Task: j.t.ID, Part: j.partIdx})

	var dur timeq.Time
	dur += e.charge(c.id, "sch", e.model.Sched)
	dur += e.charge(c.id, "cnt2", e.model.CtxSwitch)
	home := e.cores[j.home]
	remote := j.home != c.id
	dur += e.charge(c.id, "sq-add", e.model.QueueOpCost(overhead.SleepAdd, home.n, remote))
	j.active = false
	j.state = jsSleeping
	j.core = j.home
	next := j.release + j.t.Period
	if e.rng != nil {
		// Sporadic task: the next arrival is at least a period away.
		next += timeq.Time(e.rng.Int63n(int64(e.jitter) + 1))
	}
	j.sleepNode = home.sleep.Insert(int64(next), j)
	// A job that overran its period has a next release in the past;
	// it wakes immediately (and will be recorded as late), the
	// release timestamp keeping the periodic grid.
	e.schedule(timeq.Max(next, e.now), &event{kind: evWake, core: j.home})

	d2, resume := e.pickNext(c)
	e.finishPass(c, dur+d2, resume)
}

// migrateOut runs the budget-exhaustion case: push the next part into
// the destination core's ready queue (remote add), then dispatch the
// next local job.
func (e *engine) migrateOut(c *core, j *job) {
	e.stats.Migrations++
	dest := e.cores[j.partCore(j.partIdx+1)]
	var dur timeq.Time
	dur += e.charge(c.id, "sch", e.model.Sched)
	dur += e.charge(c.id, "cnt2", e.model.CtxSwitch)
	dur += e.charge(c.id, "rq-add", e.model.QueueOpCost(overhead.ReadyAdd, dest.n, true))
	e.rec.Record(trace.Event{T: e.now, Core: c.id, Kind: trace.MigrateOut, Task: j.t.ID, Part: j.partIdx})

	j.partIdx++
	j.remaining = j.partBudget(j.partIdx)
	j.extra += e.model.Cache.Delay(j.t.WSS, true)
	j.state = jsInFlight
	j.prio = e.keyFor(j)
	arrive := e.now + dur
	if e.policy == EDF && j.split.HasWindows() {
		// Window-constrained splitting: the part becomes eligible at
		// its window start, never earlier (the analysis assumes the
		// window grid).
		arrive = timeq.Max(arrive, j.release+j.split.WindowStart(j.partIdx))
	}
	e.schedule(arrive, &event{kind: evMigArrive, core: dest.id, j: j, gen: j.gen})

	d2, resume := e.pickNext(c)
	e.finishPass(c, dur+d2, resume)
}

// pickNext selects the next ready job (if any) for the core,
// returning the δ-delete cost and the staged job.
func (e *engine) pickNext(c *core) (timeq.Time, *job) {
	if c.ready.Len() == 0 {
		return 0, nil
	}
	dur := e.charge(c.id, "rq-del", e.model.QueueOpCost(overhead.ReadyDelete, c.n, false))
	chosen := c.ready.ExtractMin().Value
	chosen.state = jsRunning
	chosen.core = c.id
	return dur, chosen
}

// handleMigArrive lands a migrated part in the destination ready
// queue and triggers the scheduler there.
func (e *engine) handleMigArrive(cid int, j *job, gen int) {
	if j.gen != gen || j.state != jsInFlight {
		return // aborted in flight
	}
	c := e.cores[cid]
	j.state = jsReady
	j.core = cid
	c.ready.Insert(j.prio, j)
	e.rec.Record(trace.Event{T: e.now, Core: cid, Kind: trace.MigrateIn, Task: j.t.ID, Part: j.partIdx})
	e.reschedule(cid)
}

// reschedule runs a scheduling check on core c (deferring into a
// running kernel segment): dispatch if idle, preempt if a
// higher-priority job is waiting.
func (e *engine) reschedule(cid int) {
	c := e.cores[cid]
	if e.deferred(c, evResched) {
		return
	}
	cand := c.ready.Min()
	if cand == nil {
		return
	}
	if c.running != nil && cand.Key >= c.running.prio {
		return // no preemption; the waiting job costs nothing now
	}
	dur, resume := e.schedulerPass(c)
	e.finishPass(c, dur, resume)
}

func (e *engine) recordMiss(j *job, at timeq.Time, overrun bool) {
	e.stats.Misses++
	e.misses = append(e.misses, Miss{Task: j.t.ID, Release: j.release, Deadline: j.deadline, At: at, Overrun: overrun})
	e.rec.Record(trace.Event{T: at, Core: j.core, Kind: trace.DeadlineMiss, Task: j.t.ID})
}

// sweepUnfinished flags jobs that are still in the system at the
// horizon with expired deadlines.
func (e *engine) sweepUnfinished() {
	for _, j := range e.jobs {
		if j.active && j.deadline < e.horizon {
			e.recordMiss(j, e.horizon, true)
		}
	}
}

func (e *engine) result() *Result {
	return &Result{
		Stats:        e.stats,
		Misses:       e.misses,
		MaxResponse:  e.maxResponse,
		Jobs:         e.jobCount,
		MaxTardiness: e.maxTardiness,
	}
}
