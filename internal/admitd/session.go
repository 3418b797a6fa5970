package admitd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/api"
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/taskgen"
	"repro/internal/wal"
)

// Errors surfaced to the HTTP layer with distinct status codes.
var (
	// ErrSessionClosed is returned by calls against a session whose
	// actor has exited (evicted or deleted concurrently).
	ErrSessionClosed = errors.New("admitd: session closed")
	// ErrProbePending rejects a new mutation while a held probe
	// awaits commit/rollback.
	ErrProbePending = errors.New("admitd: a held probe is pending (commit or rollback first)")
	// ErrNoProbePending rejects commit/rollback with nothing held.
	ErrNoProbePending = errors.New("admitd: no probe pending")
	// ErrDuplicateTask rejects admitting an ID the session already
	// hosts.
	ErrDuplicateTask = errors.New("admitd: task id already admitted")
	// ErrUnknownTask is returned by remove for an absent ID.
	ErrUnknownTask = errors.New("admitd: no such task in session")
)

// Session is one live cluster session, split into two paths:
//
//   - The write path — admit, split, commit, rollback, remove, and
//     anything touching the held-probe protocol — is serialized by
//     the actor goroutine, exactly as before.
//   - The read path — non-holding try, state, stats, and try-only
//     batches — never enters the actor: it forks the context's
//     latest published snapshot (analysis.Snapshot, an atomic load)
//     and answers from that immutable committed state, so any number
//     of goroutines read concurrently while the actor commits.
//
// Mutable fields the read path needs are mirrored in atomics
// (holding, nTasks, pubStats) or concurrent structures (tasks); the
// actor owns their updates. Everything else below mu is actor-owned.
type Session struct {
	name   string
	policy task.Policy
	model  *overhead.Model

	a    *task.Assignment
	actx analysis.Context

	// tasks is the committed task-ID set (see idSet): actor-written
	// with O(1) lock-free writes, read lock-free and allocation-free
	// by the read path's duplicate checks — sync.Map.Load would box
	// the int64-backed key on every call, and a clone-per-write COW
	// map costs O(n) per admit. nTasks mirrors its size.
	tasks  *idSet
	nTasks atomic.Int64

	// hold is the held probe of the two-phase try/commit|rollback
	// protocol; actor-owned, with holding mirroring "a hold is out"
	// for the read path's state overlay.
	hold    heldProbe
	holding atomic.Bool

	// Request counters (atomics: read by /stats without the actor).
	admitted, rejected, removed atomic.Int64
	// baseStats carries admission counters restored from a snapshot,
	// so eviction/restore cycles don't zero the reported totals.
	baseStats analysis.AdmissionStats
	// pubStats is the writer-side context counters as of the last
	// actor operation, republished by the actor loop so the stats
	// read path never touches the actor-owned context counters.
	pubStats atomic.Pointer[analysis.AdmissionStats]

	// stateCache memoizes the rendered committed state per snapshot
	// sequence, so repeated state reads between commits are O(1).
	// stateHits/stateMisses count reads served from (vs. rendering
	// into) the memo — surfaced in the session stats response and,
	// via the server-wide counters in met, on /metrics.
	stateCache  atomic.Pointer[stateCacheEntry]
	stateHits   atomic.Int64
	stateMisses atomic.Int64

	// met is the owning server's telemetry plane; nil when the
	// session runs without one (direct construction in tests). Every
	// use is a nil-checked atomic op — never an allocation.
	met *serverMetrics

	// Durability plane (nil/zero without one), set by attachWal before
	// the session is reachable; actor-owned. Each committed mutation
	// appends one record at its durable seq (seqBase + CommitSeq), and
	// the actor commits the log once per drain, before completions.
	wlog      *wal.Log
	wplane    *walPlane // owner of wlog; routes drain commits to the group batcher
	wstream   string
	seqBase   int64
	walEnt    *streamState
	walBuf    []byte // actor-owned record-encode scratch
	walStaged int64  // records appended in the current drain

	// walTail is the previous drain handoff's completion channel
	// (actor-owned; nil before the first durable drain). Handoffs
	// chain on it so acks release in drain order
	// even though each drain's fsync wait runs off the actor.
	walTail <-chan struct{}

	lastUsed atomic.Int64 // store's logical clock at last touch

	// Drain state (actor-owned): inDrain is set while the actor works
	// through one mailbox drain under a context group commit;
	// drainUnreg collects task-ID unregistrations deferred until the
	// drain's one snapshot publish (see removeLocked).
	inDrain    bool
	drainUnreg []task.ID

	mu     sync.Mutex
	closed bool
	// closedFlag mirrors closed for the read path, which never takes
	// mu: reads against an evicted/deleted session get the same
	// session_closed contract as writes.
	closedFlag atomic.Bool
	reqs       chan *sessionCall
	done       chan struct{}
}

// stateCacheEntry is one rendered committed state (body only; the
// probe-pending overlay is stamped per request). enc caches the
// marshaled response body per overlay variant, so a state read that
// hits both caches writes precomputed bytes and never touches
// encoding/json.
type stateCacheEntry struct {
	seq int64
	st  api.State
	enc [3]atomic.Pointer[[]byte] // indexed by stateVariant*
}

// Overlay variants for stateCacheEntry.enc.
const (
	stateVariantSchedTrue = iota
	stateVariantSchedFalse
	stateVariantPending
)

// sessionCall is one queued actor operation. Calls are pooled: done
// is a reusable one-slot channel (the actor sends one token per call,
// the caller receives exactly one), so the steady-state write path
// allocates neither the call nor the channel.
type sessionCall struct {
	f    func()
	done chan struct{}
}

var callPool = sync.Pool{
	New: func() any { return &sessionCall{done: make(chan struct{}, 1)} },
}

// newSession builds a session over an already-populated assignment
// (empty for fresh sessions, rebuilt for restores) and starts its
// actor.
func newSession(name string, p task.Policy, model *overhead.Model, a *task.Assignment, coll *analysis.Collector, met *serverMetrics) *Session {
	a.Policy = p
	s := &Session{
		name:   name,
		policy: p,
		model:  model,
		a:      a,
		actx:   analysis.ForPolicy(p).NewContext(a, model),
		met:    met,
		reqs:   make(chan *sessionCall, 16),
		done:   make(chan struct{}),
	}
	if coll != nil {
		s.actx.SetCollector(coll)
	}
	if met != nil {
		// Live fixed-point iteration histogram: observed per
		// read-path probe as its stats fold into the collector.
		s.actx.ReadCollector().SetFPObserver(met.fpObserver())
	}
	s.tasks = newIDSet()
	for _, ts := range a.Normal {
		for _, t := range ts {
			s.registerTask(t.ID)
		}
	}
	for _, sp := range a.Splits {
		s.registerTask(sp.Task.ID)
	}
	s.pubStats.Store(&analysis.AdmissionStats{})
	// Engage snapshot publication before any reader can reach the
	// session (the first Fork must not race the actor).
	s.actx.Fork()
	go s.loop()
	return s
}

// registerTask maintains the committed task-ID set. Writers are
// serialized already (the actor, or construction before the session
// is reachable); O(1) amortized. The inverse lives in removeLocked,
// where the ID-set removal is ordered against the snapshot publish.
func (s *Session) registerTask(id task.ID) {
	s.tasks.add(id)
	s.nTasks.Add(1)
}

// hasTask is the read-path duplicate check: an atomic table load plus
// a linear probe, no lock, no allocation.
func (s *Session) hasTask(id task.ID) bool {
	return s.tasks.has(id)
}

// maxDrain bounds one mailbox drain: enough to coalesce a deep queue
// into one publish, small enough that the first caller in a drain is
// never held behind an unbounded backlog.
const maxDrain = 32

// loop is the actor: it owns the context and runs requests in arrival
// order, so per-session state needs no further locking. The mailbox
// drains in groups: each blocking receive is topped up with whatever
// else is already queued (up to maxDrain), the whole drain runs under
// one context group commit — every verdict still computed and
// returned per operation, exactly as ungrouped — and the committed
// state publishes ONE snapshot at EndGroup instead of one per
// mutation. Deferred unregistrations and the stats republish follow
// the publish; completion is signaled last, so a caller never
// observes its own mutation missing from the published snapshot.
func (s *Session) loop() {
	var batch [maxDrain]*sessionCall
	var staged [maxDrain]int64 // cumulative walStaged after each op
	for c := range s.reqs {
		batch[0] = c
		n := 1
	drain:
		for n < maxDrain {
			select {
			case c2, ok := <-s.reqs:
				if !ok {
					break drain // closed; finish this drain, then exit
				}
				batch[n] = c2
				n++
			default:
				break drain
			}
		}
		s.inDrain = true
		seqBefore := s.actx.CommitSeq()
		s.actx.BeginGroup()
		for i := 0; i < n; i++ {
			batch[i].f()
			staged[i] = s.walStaged
		}
		s.actx.EndGroup()
		s.inDrain = false
		for _, id := range s.drainUnreg {
			s.tasks.remove(id)
		}
		s.drainUnreg = s.drainUnreg[:0]
		st := s.actx.Stats()
		s.pubStats.Store(&st)
		if m := s.met; m != nil {
			m.drainSize.ObserveInt(int64(n))
			if s.actx.CommitSeq() != seqBefore {
				m.publishes.Inc()
			}
		}
		// Close the drain's commit boundary. Under the always policy the
		// fsync wait is handed off the actor, with the completion tokens
		// of the ops that staged records: they release after the
		// covering fsync, in drain order (the handoffs chain), so no seq
		// is acked before it is durable. Ops that staged nothing
		// release at once. Under group and off, acks never wait for the
		// device: the background committer (group) or the OS (off)
		// carries the records down.
		if s.wlog != nil && s.walStaged > 0 {
			if m := s.met; m != nil {
				m.walRecsPerDrain.ObserveInt(s.walStaged)
			}
			s.walStaged = 0
			if s.wplane.syncOnDrain {
				calls := make([]*sessionCall, 0, n)
				var prev int64
				for i := 0; i < n; i++ {
					if staged[i] != prev {
						calls = append(calls, batch[i])
					} else {
						batch[i].done <- struct{}{}
					}
					prev = staged[i]
					batch[i] = nil
				}
				h := &walHandoff{
					calls: calls,
					prev:  s.walTail,
					done:  make(chan struct{}),
				}
				s.walTail = h.done
				go s.commitHandoff(h)
				continue
			}
		}
		// Immediate release: read-only, non-durable, or bounded-loss
		// drains.
		for i := 0; i < n; i++ {
			batch[i].done <- struct{}{}
			batch[i] = nil
		}
	}
	close(s.done)
}

// walHandoff carries one drain's durability wait off the actor: the
// completion tokens that may release only after the covering fsync.
// prev is the preceding drain's handoff (nil for the first), giving
// per-session FIFO release.
type walHandoff struct {
	calls []*sessionCall
	prev  <-chan struct{}
	done  chan struct{}
}

// commitHandoff completes one drain off the actor: wait for the
// covering fsync, then — in drain order — release the completion
// tokens. Commit errors latch the session's failure flag but still
// release the tokens (the callers already hold their verdicts;
// subsequent mutations will refuse).
func (s *Session) commitHandoff(h *walHandoff) {
	if err := s.wplane.commitLog(s.wlog); err != nil {
		s.walFail()
	}
	if h.prev != nil {
		<-h.prev
	}
	for _, c := range h.calls {
		c.done <- struct{}{}
	}
	close(h.done)
}

// call runs f on the actor and waits for it.
func (s *Session) call(f func()) error {
	c := callPool.Get().(*sessionCall)
	c.f = f
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.f = nil
		callPool.Put(c)
		return ErrSessionClosed
	}
	s.reqs <- c
	s.mu.Unlock()
	<-c.done
	c.f = nil
	callPool.Put(c)
	return nil
}

// stop ends the actor after draining queued requests: every append it
// makes has happened on return, though the last may not be synced yet.
func (s *Session) stop() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.closedFlag.Store(true)
		close(s.reqs)
	}
	s.mu.Unlock()
	<-s.done
}

// close stops the actor; the final flush folds the context's counters
// into the attached collector and the process aggregate.
func (s *Session) close() {
	s.stop()
	// The actor has exited (so walTail is stable); wait out the last
	// in-flight commit handoff before the caller snapshots or deletes.
	if s.walTail != nil {
		<-s.walTail
	}
	s.actx.Flush()
}

// heldProbe is the verdict of a holding try or split: the task (t) or
// split (sp) it judged, the core a whole task fits on, and whether it
// fits. The probe itself was rolled back in the op that ran it, so no
// tentative mutation outlives an actor op. While a hold is out every
// mutation answers probe_pending, so commit installs it onto exactly
// the state it judged, with Place or AddSplit.
type heldProbe struct {
	t    *task.Task
	sp   *task.Split
	core int
	fits bool
}

func (h *heldProbe) taskID() int64 {
	if h.sp != nil {
		return int64(h.sp.Task.ID)
	}
	return int64(h.t.ID)
}

// setHold records h as the held probe, or clears it when h is the zero
// value, mirroring it into the flag the read path consults. Actor-only.
func (s *Session) setHold(h heldProbe) {
	s.hold = h
	s.holding.Store(h.t != nil || h.sp != nil)
}

// probeLocked probes req's task on the writer context for admit and a
// holding try: on the named core, or first fit over all cores. A probe
// that admits stays pending for the caller to resolve; every rejection
// is rolled back here.
func (s *Session) probeLocked(req api.AdmitRequest) (*task.Task, api.Verdict, error) {
	if s.holding.Load() {
		return nil, api.Verdict{}, ErrProbePending
	}
	t, err := toTask(req.Task, s.policy)
	if err != nil {
		return nil, api.Verdict{}, err
	}
	if s.hasTask(t.ID) {
		return nil, api.Verdict{}, fmt.Errorf("%w: %d", ErrDuplicateTask, t.ID)
	}
	lo, hi := 0, s.a.NumCores
	if req.Core != nil {
		lo = *req.Core
		if lo < 0 || lo >= hi {
			return nil, api.Verdict{}, fmt.Errorf("core %d out of range (%d cores)", lo, hi)
		}
		hi = lo + 1
	}
	resp := api.Verdict{TaskID: int64(t.ID), Core: -1}
	for c := lo; c < hi; c++ {
		resp.Probes++
		if s.actx.TryPlace(t, c) {
			resp.Admitted, resp.Core = true, c
			return t, resp, nil
		}
		s.actx.Rollback()
	}
	return t, resp, nil
}

// admitLocked runs one admission on the actor: explicit-core or
// first-fit probe, committed when it fits. Two-phase admission goes
// through a holding try or split instead.
func (s *Session) admitLocked(req api.AdmitRequest) (api.Verdict, error) {
	t, resp, err := s.probeLocked(req)
	if err != nil {
		return api.Verdict{}, err
	}
	if !resp.Admitted {
		s.rejected.Add(1)
		return resp, nil
	}
	// Register before Commit publishes the grown snapshot: a
	// concurrent read in the window then sees duplicate_task —
	// linearizable as ordered after the admission — rather than a
	// snapshot containing a task the duplicate check missed.
	s.registerAdmitted(t, nil)
	s.actx.Commit()
	s.walNoteAdmit(t, nil, resp.Core)
	return resp, nil
}

// holdLocked is a holding try: it probes as admit does, rolls the
// probe back, and holds the verdict for commit or rollback. A named
// core is held whatever its verdict; a first fit that finds no core
// holds nothing.
func (s *Session) holdLocked(req api.AdmitRequest) (api.Verdict, error) {
	t, resp, err := s.probeLocked(req)
	if err != nil {
		return api.Verdict{}, err
	}
	if resp.Admitted {
		s.actx.Rollback()
	}
	if resp.Admitted || req.Core != nil {
		s.setHold(heldProbe{t: t, core: resp.Core, fits: resp.Admitted})
		resp.Pending = true
	}
	return resp, nil
}

// splitLocked probes a split task: committed when it fits, or held
// with req.Hold.
func (s *Session) splitLocked(req api.SplitRequest) (api.Verdict, error) {
	if s.holding.Load() {
		return api.Verdict{}, ErrProbePending
	}
	sp, err := toSplit(req.Split, s.policy)
	if err != nil {
		return api.Verdict{}, err
	}
	if s.hasTask(sp.Task.ID) {
		return api.Verdict{}, fmt.Errorf("%w: %d", ErrDuplicateTask, sp.Task.ID)
	}
	for _, p := range sp.Parts {
		if p.Core < 0 || p.Core >= s.a.NumCores {
			return api.Verdict{}, fmt.Errorf("split part core %d out of range (%d cores)", p.Core, s.a.NumCores)
		}
	}
	resp := api.Verdict{TaskID: int64(sp.Task.ID), Core: -1, Probes: 1}
	resp.Admitted = s.actx.TrySplit(sp, sp.Parts[0].Core)
	switch {
	case req.Hold:
		s.actx.Rollback()
		s.setHold(heldProbe{sp: sp, core: -1, fits: resp.Admitted})
		resp.Pending = true
	case resp.Admitted:
		s.registerAdmitted(nil, sp) // before the publishing Commit (see admitLocked)
		s.actx.Commit()
		s.walNoteAdmit(nil, sp, -1)
	default:
		s.actx.Rollback()
		s.rejected.Add(1)
	}
	return resp, nil
}

// registerAdmitted records a committed admission.
func (s *Session) registerAdmitted(t *task.Task, sp *task.Split) {
	if sp != nil {
		s.registerTask(sp.Task.ID)
	} else {
		s.registerTask(t.ID)
	}
	s.admitted.Add(1)
}

// ErrProbeRejected refuses committing a held probe whose verdict was
// negative — committing it would install an inadmissible task.
var ErrProbeRejected = errors.New("admitd: held probe was rejected; rollback it")

// commitLocked installs the held probe. Only an admitted probe may be
// committed: a rejected one would put the session into a
// committed-but-unschedulable state.
func (s *Session) commitLocked() (api.Verdict, error) {
	h := s.hold
	if !s.holding.Load() {
		return api.Verdict{}, ErrNoProbePending
	}
	if !h.fits {
		return api.Verdict{}, ErrProbeRejected
	}
	s.registerAdmitted(h.t, h.sp) // before the publishing install (see admitLocked)
	if h.sp != nil {
		s.actx.AddSplit(h.sp)
	} else {
		s.actx.Place(h.t, h.core)
	}
	s.walNoteAdmit(h.t, h.sp, h.core)
	s.setHold(heldProbe{})
	return api.Verdict{TaskID: h.taskID(), Admitted: true, Core: h.core}, nil
}

// rollbackLocked drops the held probe, counting a rejection.
func (s *Session) rollbackLocked() (api.Verdict, error) {
	if !s.holding.Load() {
		return api.Verdict{}, ErrNoProbePending
	}
	resp := api.Verdict{TaskID: s.hold.taskID(), Admitted: false, Core: -1}
	s.setHold(heldProbe{})
	s.rejected.Add(1)
	return resp, nil
}

// removeLocked deletes an admitted task — the analysis layer's
// removal invalidation path.
func (s *Session) removeLocked(id task.ID) error {
	if s.holding.Load() {
		return ErrProbePending
	}
	if !s.hasTask(id) {
		return fmt.Errorf("%w: %d", ErrUnknownTask, id)
	}
	if !s.actx.Remove(id) {
		return fmt.Errorf("%w: %d", ErrUnknownTask, id)
	}
	// Unregister after Remove published the shrunken snapshot: a
	// concurrent read of the same ID in the window sees
	// duplicate_task, linearizable as ordered before the removal
	// (the inverse of the admit ordering in admitLocked). Inside a
	// drain the publish itself is deferred to EndGroup, so the ID-set
	// removal defers with it; an admit of the same ID later in the
	// drain then reports duplicate_task — linearizable as ordered
	// before this removal completed. The summary task count updates
	// immediately: it is a counter, not part of the ordering contract.
	s.nTasks.Add(-1)
	if s.inDrain {
		s.drainUnreg = append(s.drainUnreg, id)
	} else {
		s.tasks.remove(id)
	}
	s.removed.Add(1)
	s.walNoteRemove(id)
	return nil
}

// --- durability hooks (actor-only) -----------------------------------

// attachWal wires the session to its commit-log stream. Must run
// before the session is reachable (between newSession/restoreSession
// and the store-map insert): the first actor call's channel send
// publishes the fields to the actor goroutine.
func (s *Session) attachWal(p *walPlane, l *wal.Log, stream string, ent *streamState, seqBase int64) {
	s.wlog = l
	s.wplane = p
	s.wstream = stream
	s.walEnt = ent
	s.seqBase = seqBase
}

// durableSeq is the session's dense durable sequence number: the
// restart base plus the live context's committed-mutation count.
// Actor-only (CommitSeq is actor state).
func (s *Session) durableSeq() int64 {
	return s.seqBase + s.actx.CommitSeq()
}

// walNoteAdmit appends one committed admission (whole task or split)
// at its durable seq, right after actx.Commit bumped CommitSeq; the
// drain boundary's log commit makes it durable.
func (s *Session) walNoteAdmit(t *task.Task, sp *task.Split, core int) {
	if s.wlog == nil {
		return
	}
	b := s.walBuf[:0]
	if sp != nil {
		wire := fromSplit(sp)
		b = walEncodeSplit(b, s.nTasks.Load(), &wire)
	} else {
		wire := fromTask(t, core)
		b = walEncodeAdmit(b, core, s.nTasks.Load(), &wire)
	}
	s.walBuf = b
	s.walAppend(b)
}

// walNoteRemove appends one committed removal.
func (s *Session) walNoteRemove(id task.ID) {
	if s.wlog == nil {
		return
	}
	b := walEncodeRemove(s.walBuf[:0], s.nTasks.Load(), int64(id))
	s.walBuf = b
	s.walAppend(b)
}

func (s *Session) walAppend(payload []byte) {
	seq := s.durableSeq()
	if _, err := s.wlog.Append(s.wstream, seq, payload); err != nil {
		s.walFail()
		return
	}
	s.walStaged++
	s.walEnt.lastSeq.Store(seq)
	if m := s.met; m != nil {
		m.walPayloadBytes.Add(int64(len(payload)))
	}
}

// walFail records a commit-log append/fsync failure. The session
// keeps serving — durability degrades, admission does not — and the
// failure surfaces on /metrics (admitd_wal_errors_total).
func (s *Session) walFail() {
	if m := s.met; m != nil {
		m.walErrors.Inc()
	}
}

// --- the lock-free read path -----------------------------------------
//
// Everything below runs on arbitrary goroutines, concurrently with
// the actor: it only ever touches the context's published snapshot
// (analysis.Snapshot — immutable), the session's atomics and the
// concurrent task-ID set. A held probe never blocks reads — its
// tentative mutation is uncommitted, so the committed snapshot is
// exactly the state reads should describe.

// taskPool recycles the wire-to-internal task conversions on the
// probe-only read paths. A pooled task is only ever handed to
// snapshot probes, which copy what they need (the probe key, the
// tentative entity) and never retain the pointer — commit paths keep
// using heap tasks, because an admitted task lives in the assignment.
var taskPool = sync.Pool{New: func() any { return new(task.Task) }}

// tryRead answers a non-holding admission query from the latest
// published snapshot, without entering the actor. Steady-state it
// does not allocate: the task converts into pooled scratch and the
// first-fit loop pins one pooled prober across all cores.
func (s *Session) tryRead(req api.AdmitRequest) (api.Verdict, error) {
	if s.closedFlag.Load() {
		return api.Verdict{}, ErrSessionClosed
	}
	t := taskPool.Get().(*task.Task)
	defer taskPool.Put(t)
	if err := toTaskInto(t, req.Task, s.policy); err != nil {
		return api.Verdict{}, err
	}
	if s.hasTask(t.ID) {
		return api.Verdict{}, fmt.Errorf("%w: %d", ErrDuplicateTask, t.ID)
	}
	snap := s.actx.Fork()
	if m := s.met; m != nil {
		m.forks.Inc()
	}
	resp := api.Verdict{TaskID: int64(t.ID), Core: -1}
	if req.Core != nil {
		c := *req.Core
		if c < 0 || c >= snap.NumCores() {
			return api.Verdict{}, fmt.Errorf("core %d out of range (%d cores)", c, snap.NumCores())
		}
		resp.Probes = 1
		resp.Admitted = snap.TryPlace(t, c)
		if resp.Admitted {
			resp.Core = c
		}
		return resp, nil
	}
	pr := snap.Prober()
	defer pr.Close()
	probeFirstFit(pr, snap, t, &resp)
	return resp, nil
}

// probeFirstFit probes t on the snapshot's cores in order through pr,
// counting the probes in v and stopping at the first core that admits
// it.
func probeFirstFit(pr analysis.Prober, snap analysis.Snapshot, t *task.Task, v *api.Verdict) {
	for c := 0; c < snap.NumCores(); c++ {
		v.Probes++
		if pr.TryPlace(t, c) {
			v.Admitted, v.Core = true, c
			return
		}
	}
}

// stateReadBytes renders the committed assignment from the latest
// published snapshot as the JSON response body (trailing newline
// included, byte-identical to json.Encoder output). The rendered body
// is memoized per snapshot sequence and its bytes per overlay variant
// (the full test's verdict, or probe_pending with the verdict omitted
// while a probe is held), so steady-state reads between commits return
// shared bytes without encoding anything. The returned slice is
// immutable and safe to write concurrently.
func (s *Session) stateReadBytes() ([]byte, error) {
	if s.closedFlag.Load() {
		return nil, ErrSessionClosed
	}
	snap := s.actx.Fork()
	if m := s.met; m != nil {
		m.forks.Inc()
	}
	e := s.stateCache.Load()
	if e == nil || e.seq != snap.Seq() {
		e = &stateCacheEntry{seq: snap.Seq(), st: s.renderState(snap)}
		s.stateCache.Store(e)
		s.noteStateMemo(false)
	} else {
		s.noteStateMemo(true)
	}
	variant := stateVariantPending
	if !s.holding.Load() {
		if snap.Schedulable() {
			variant = stateVariantSchedTrue
		} else {
			variant = stateVariantSchedFalse
		}
	}
	if p := e.enc[variant].Load(); p != nil {
		return *p, nil
	}
	body := e.st
	switch variant {
	case stateVariantSchedTrue:
		body.Schedulable = &schedTrue
	case stateVariantSchedFalse:
		body.Schedulable = &schedFalse
	default:
		body.ProbePending = true
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	buf = append(buf, '\n')
	// Concurrent misses may both store; the bytes are identical.
	e.enc[variant].Store(&buf)
	return buf, nil
}

// renderState builds the committed-state body from a snapshot (the
// stateCache miss path).
func (s *Session) renderState(snap analysis.Snapshot) api.State {
	body := api.State{
		Name:   s.name,
		Cores:  snap.NumCores(),
		Policy: policyName(s.policy),
	}
	snap.RangeTasks(func(t *task.Task, c int) {
		body.Tasks = append(body.Tasks, fromTask(t, c))
	})
	snap.RangeSplits(func(sp *task.Split) {
		body.Splits = append(body.Splits, fromSplit(sp))
	})
	body.CoreUtilization = snap.CoreUtilization()
	return body
}

// noteStateMemo records one state read against the rendered-body
// memo: the per-session atomic feeds the session stats response, the
// server-wide counter feeds /metrics. Pure atomic adds.
func (s *Session) noteStateMemo(hit bool) {
	if hit {
		s.stateHits.Add(1)
	} else {
		s.stateMisses.Add(1)
	}
	if m := s.met; m != nil {
		if hit {
			m.stateHits.Inc()
		} else {
			m.stateMisses.Inc()
		}
	}
}

// Shared pointees for the optional schedulability verdict, so a
// cache-hit state render allocates nothing. Never written through.
var (
	schedTrue  = true
	schedFalse = false
)

// statsRead returns the session's admission counters without the
// actor: the writer-side counters as republished after the last actor
// operation, the read path's own counters, and whatever a snapshot
// restore carried over.
func (s *Session) statsRead() (analysis.AdmissionStats, error) {
	if s.closedFlag.Load() {
		return analysis.AdmissionStats{}, ErrSessionClosed
	}
	return s.pubStats.Load().Add(s.actx.ReadStats()).Add(s.baseStats), nil
}

// statsLocked returns this session's admission counters on the actor
// (snapshotting uses it: it must see the very latest writer counters,
// not the last republished ones).
func (s *Session) statsLocked() analysis.AdmissionStats {
	return s.actx.Stats().Add(s.actx.ReadStats()).Add(s.baseStats)
}

// batchLocked admits a whole set task by task, emitting one verdict
// per task; ctx aborts the remainder (client disconnect).
func (s *Session) batchLocked(ctx context.Context, req api.BatchRequest, emit func(api.Verdict)) (api.BatchSummary, error) {
	if s.holding.Load() {
		return api.BatchSummary{}, ErrProbePending
	}
	wire, err := s.batchWire(req)
	if err != nil {
		return api.BatchSummary{}, err
	}
	sum := api.BatchSummary{Done: true}
	for _, j := range wire {
		if ctx.Err() != nil {
			sum.Canceled = true
			break
		}
		v, err := s.admitLocked(api.AdmitRequest{Task: j})
		if err != nil {
			return sum, err
		}
		if v.Admitted {
			sum.Admitted++
		} else {
			sum.Rejected++
		}
		if emit != nil {
			emit(v)
		}
	}
	sum.Schedulable = s.actx.Schedulable()
	sum.TaskCount = int(s.nTasks.Load())
	return sum, nil
}

// batchWire resolves a batch request to the ordered wire task list:
// explicit tasks or a server-side generated set, optionally reordered
// by decreasing utilization. Safe off the actor (the ID scan reads
// the concurrent task set).
func (s *Session) batchWire(req api.BatchRequest) ([]api.Task, error) {
	var wire []api.Task
	switch {
	case req.Generate != nil && len(req.Tasks) > 0:
		return nil, fmt.Errorf("batch: tasks and generate are mutually exclusive")
	case req.Generate != nil:
		cfg, err := toTaskGen(req.Generate)
		if err != nil {
			return nil, err
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		set := taskgen.New(cfg).Next()
		base := s.nextFreeID()
		for i, t := range set.Tasks {
			j := fromTask(t, -1)
			j.ID = base + int64(i)
			wire = append(wire, j)
		}
	case len(req.Tasks) > 0:
		wire = req.Tasks
	default:
		return nil, fmt.Errorf("batch: need tasks or generate")
	}
	if req.Order == "util-desc" {
		sorted := append([]api.Task(nil), wire...)
		sort.SliceStable(sorted, func(i, k int) bool {
			ui := float64(sorted[i].WCETNs) / float64(sorted[i].PeriodNs)
			uk := float64(sorted[k].WCETNs) / float64(sorted[k].PeriodNs)
			if ui != uk {
				return ui > uk
			}
			return sorted[i].ID < sorted[k].ID
		})
		wire = sorted
	} else if req.Order != "" && req.Order != "input" {
		return nil, fmt.Errorf("batch: unknown order %q (input|util-desc)", req.Order)
	}
	return wire, nil
}

// batchSlabPool recycles a try-only batch's converted tasks: the slab
// grows to the largest batch seen and is reused across requests.
var batchSlabPool = sync.Pool{New: func() any { return new([]task.Task) }}

// batchTryRead is the read-path batch: every task probed first-fit,
// in input order through one prober, against ONE forked snapshot, with
// nothing committed. Verdicts are independent "would this task fit
// the committed state right now, alone?" answers — successive tasks
// do not see each other. Each verdict is emitted as it is computed;
// ctx aborts the remainder.
func (s *Session) batchTryRead(ctx context.Context, req api.BatchRequest, emit func(api.Verdict)) (api.BatchSummary, error) {
	if s.closedFlag.Load() {
		return api.BatchSummary{}, ErrSessionClosed
	}
	wire, err := s.batchWire(req)
	if err != nil {
		return api.BatchSummary{}, err
	}
	n := len(wire)
	bp := batchSlabPool.Get().(*[]task.Task)
	defer batchSlabPool.Put(bp)
	if cap(*bp) < n {
		*bp = make([]task.Task, n)
	}
	slab := (*bp)[:n]
	// Validate first (cheap), so a malformed task fails the batch the
	// way the actor path would, not mid-stream.
	for i, j := range wire {
		if err := toTaskInto(&slab[i], j, s.policy); err != nil {
			return api.BatchSummary{}, err
		}
	}
	snap := s.actx.Fork()
	if m := s.met; m != nil {
		m.forks.Inc()
	}
	pr := snap.Prober()
	defer pr.Close()
	sum := api.BatchSummary{Done: true, TryOnly: true}
	for i := range slab {
		if ctx.Err() != nil {
			sum.Canceled = true
			break
		}
		t := &slab[i]
		v := api.Verdict{TaskID: int64(t.ID), Core: -1}
		// An admitted task cannot be admitted twice: it is reported
		// as not admissible.
		if !s.hasTask(t.ID) {
			probeFirstFit(pr, snap, t, &v)
		}
		if v.Admitted {
			sum.Admitted++
		} else {
			sum.Rejected++
		}
		if emit != nil {
			emit(v)
		}
	}
	sum.Schedulable = snap.Schedulable()
	sum.TaskCount = int(s.nTasks.Load())
	return sum, nil
}

// nextFreeID picks a base ID above everything the session hosts, so
// generated batches never collide with admitted tasks.
func (s *Session) nextFreeID() int64 {
	max := int64(0)
	s.tasks.each(func(k task.ID) {
		if id := int64(k); id > max {
			max = id
		}
	})
	return max + 1
}
